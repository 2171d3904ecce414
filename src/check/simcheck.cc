#include "src/check/simcheck.h"

#include <sstream>

namespace rover {
namespace check {

void SimCheck::Attach(Testbed* bed) {
  bed_ = bed;
  bed->SetCheckListener(this);
}

std::string SimCheck::Report() const {
  std::ostringstream out;
  out << violations_.size() << " violation(s)\n";
  for (const auto& v : violations_) {
    out << "  [" << v.invariant << "] " << v.node << ": " << v.detail << "\n";
  }
  return out.str();
}

std::string SimCheck::TraceTail(size_t n) const {
  std::ostringstream out;
  const size_t start = trace_.size() > n ? trace_.size() - n : 0;
  for (size_t i = start; i < trace_.size(); ++i) {
    out << trace_[i] << "\n";
  }
  return out.str();
}

void SimCheck::AddViolation(const std::string& invariant, const std::string& node,
                            const std::string& detail) {
  TraceEvent("VIOLATION [" + invariant + "] " + node + ": " + detail);
  if (violations_.size() >= max_violations_) {
    return;
  }
  violations_.push_back({invariant, node, detail});
}

void SimCheck::TraceEvent(const std::string& line) {
  std::string stamped = line;
  if (bed_ != nullptr) {
    std::ostringstream at;
    at << bed_->loop()->now().micros() / 1000 << "ms ";
    stamped = at.str() + line;
  }
  if (trace_.size() >= kTraceCap) {
    // Drop the older half rather than shifting one-by-one per event.
    trace_.erase(trace_.begin(), trace_.begin() + kTraceCap / 2);
  }
  trace_.push_back(std::move(stamped));
}

SimCheck::CallState& SimCheck::Call(const std::string& client, uint64_t rpc_id) {
  return clients_[client].calls[rpc_id];
}

bool SimCheck::InResentChain(const ClientState& state, uint64_t rpc_id,
                             const std::set<uint64_t>& resent) const {
  uint64_t id = rpc_id;
  // Chains are short (a supersede key's coalescing lineage), but guard
  // against cycles all the same.
  for (int hops = 0; hops < 1024; ++hops) {
    if (resent.count(id) > 0) {
      return true;
    }
    auto it = state.calls.find(id);
    if (it == state.calls.end() || it->second.subsumed_by == 0) {
      return false;
    }
    id = it->second.subsumed_by;
  }
  return false;
}

bool SimCheck::ResolvedOrPending(const ClientState& state, uint64_t rpc_id,
                                 const std::set<uint64_t>& outstanding) const {
  uint64_t id = rpc_id;
  for (int hops = 0; hops < 1024; ++hops) {
    auto it = state.calls.find(id);
    if (it == state.calls.end()) {
      return true;  // untracked: issued before Attach, no claim to make
    }
    const CallState& c = it->second;
    if (c.resolutions > 0 || c.satisfied_via_successor || c.orphaned ||
        outstanding.count(id) > 0) {
      return true;
    }
    if (c.subsumed_by == 0) {
      return false;
    }
    id = c.subsumed_by;  // a pred is healthy if its successor chain is
  }
  return false;
}

// --- client hooks ---

void SimCheck::OnCallIssued(const std::string& client, uint64_t rpc_id, bool logged) {
  TraceEvent(client + " issue rpc=" + std::to_string(rpc_id) + (logged ? " logged" : ""));
  auto& calls = clients_[client].calls;
  auto it = calls.find(rpc_id);
  if (it != calls.end() && it->second.tracked) {
    AddViolation("rpc-id-reuse", client,
                 "rpc " + std::to_string(rpc_id) + " issued twice");
    return;
  }
  CallState& call = calls[rpc_id];
  call.tracked = true;
  call.logged = logged;
}

void SimCheck::OnCallDurable(const std::string& client, uint64_t rpc_id,
                             uint64_t log_record_id) {
  TraceEvent(client + " durable rpc=" + std::to_string(rpc_id) +
             " rec=" + std::to_string(log_record_id));
  ClientState& state = clients_[client];
  CallState& call = state.calls[rpc_id];
  if (call.flush_failed) {
    AddViolation("ack-after-failed-flush", client,
                 "rpc " + std::to_string(rpc_id) +
                     " was durability-acknowledged although its stable-log "
                     "flush terminally failed");
  }
  call.durable_acked = true;
  if (log_record_id != 0) {
    call.log_record_id = log_record_id;
    state.record_to_rpc[log_record_id] = rpc_id;
  }
}

void SimCheck::OnCallFlushFailed(const std::string& client, uint64_t rpc_id) {
  TraceEvent(client + " flush-failed rpc=" + std::to_string(rpc_id));
  CallState& call = Call(client, rpc_id);
  call.flush_failed = true;
  if (call.durable_acked) {
    AddViolation("ack-after-failed-flush", client,
                 "rpc " + std::to_string(rpc_id) +
                     " reported flush-failed after already being "
                     "durability-acknowledged");
  }
}

void SimCheck::OnClientStorageQuarantine(const std::string& client,
                                         const std::vector<uint64_t>& log_record_ids) {
  {
    std::string ids;
    for (uint64_t id : log_record_ids) {
      ids += (ids.empty() ? "" : ",") + std::to_string(id);
    }
    TraceEvent(client + " storage-quarantine recs=[" + ids + "]");
  }
  ClientState& state = clients_[client];
  for (uint64_t record_id : log_record_ids) {
    auto it = state.record_to_rpc.find(record_id);
    if (it == state.record_to_rpc.end()) {
      continue;  // record never acked (or acked before Attach): no claim
    }
    // The acknowledged operation is lost, but detectably: kDataLoss was
    // surfaced and the cache re-validates. Exempt from the silent
    // durability-loss audit.
    state.calls[it->second].storage_lost = true;
  }
}

void SimCheck::OnCallWithdrawn(const std::string& client, uint64_t rpc_id) {
  TraceEvent(client + " withdraw rpc=" + std::to_string(rpc_id));
  Call(client, rpc_id).withdrawn = true;
}

void SimCheck::OnCallCoalesced(const std::string& client, uint64_t pred_rpc_id,
                               uint64_t successor_rpc_id) {
  TraceEvent(client + " coalesce pred=" + std::to_string(pred_rpc_id) + " succ=" +
             std::to_string(successor_rpc_id));
  CallState& pred = Call(client, pred_rpc_id);
  if (pred.subsumed_by != 0 && pred.subsumed_by != successor_rpc_id) {
    AddViolation("double-coalesce", client,
                 "rpc " + std::to_string(pred_rpc_id) + " subsumed by both " +
                     std::to_string(pred.subsumed_by) + " and " +
                     std::to_string(successor_rpc_id));
  }
  pred.subsumed_by = successor_rpc_id;
}

void SimCheck::OnCallResolved(const std::string& client, uint64_t rpc_id,
                              const char* path, bool /*ok*/) {
  TraceEvent(client + " resolve rpc=" + std::to_string(rpc_id) + " via=" + path);
  ClientState& state = clients_[client];
  CallState& call = state.calls[rpc_id];
  call.resolutions++;
  if (call.resolutions > 1) {
    AddViolation("double-resolve", client,
                 "rpc " + std::to_string(rpc_id) + " resolved " +
                     std::to_string(call.resolutions) + " times (last via " +
                     path + ")");
  }
  // A coalescing successor's result is forwarded to every unresolved pred
  // it subsumed (the qrpc client chains the promises); credit the whole
  // subsumption chain so those preds don't read as leaked.
  for (auto& [id, pred] : state.calls) {
    if (pred.resolutions > 0 || pred.satisfied_via_successor || pred.subsumed_by == 0) {
      continue;
    }
    uint64_t succ = pred.subsumed_by;
    for (int hops = 0; hops < 1024 && succ != 0; ++hops) {
      if (succ == rpc_id) {
        pred.satisfied_via_successor = true;
        break;
      }
      auto it = state.calls.find(succ);
      succ = it == state.calls.end() ? 0 : it->second.subsumed_by;
    }
  }
}

void SimCheck::OnClientCrashed(const std::string& client) {
  TraceEvent(client + " client-crash");
  ClientState& state = clients_[client];
  state.crash_pending = true;
  for (auto& [id, call] : state.calls) {
    if (call.resolutions == 0 && !call.satisfied_via_successor) {
      // The process died with the promise unresolved; callers accept that
      // (their closures died too). Recovery decides which of these must
      // come back as resends.
      call.orphaned = true;
    }
  }
}

void SimCheck::OnClientRecovered(const std::string& client,
                                 const std::vector<uint64_t>& resent_list) {
  {
    std::string ids;
    for (uint64_t id : resent_list) {
      ids += (ids.empty() ? "" : ",") + std::to_string(id);
    }
    TraceEvent(client + " client-recover resent=[" + ids + "]");
  }
  ClientState& state = clients_[client];
  const std::set<uint64_t> resent(resent_list.begin(), resent_list.end());
  for (uint64_t id : resent_list) {
    CallState& call = state.calls[id];
    // The recovered request gets a fresh response path: it legitimately
    // resolves again in the new incarnation.
    call.orphaned = false;
    call.resolutions = 0;
    call.satisfied_via_successor = false;
  }
  if (!state.crash_pending) {
    return;  // RecoverFromLog outside a simulated crash: nothing to audit
  }
  state.crash_pending = false;
  // Acknowledged durability: every call whose flush was acked and whose log
  // record was not legitimately withdrawn must survive the crash -- resent
  // itself, or subsumed by a successor that was.
  for (auto& [id, call] : state.calls) {
    if (!call.tracked || !call.durable_acked || call.withdrawn || call.loss_flagged ||
        call.storage_lost) {
      continue;
    }
    if (call.resolutions > 0 || call.satisfied_via_successor) {
      continue;  // already resolved (possibly via a resend of an earlier
                 // crash's coalescing successor) -- nothing left to lose
    }
    if (!InResentChain(state, id, resent)) {
      call.loss_flagged = true;
      AddViolation("durability-loss", client,
                   "rpc " + std::to_string(id) +
                       " was flush-acknowledged but neither it nor a "
                       "coalescing successor was re-sent after crash");
    }
  }
}

// --- server hooks ---

void SimCheck::OnServerExecute(const std::string& server, const std::string& client,
                               uint64_t rpc_id) {
  TraceEvent(server + " execute " + client + "/" + std::to_string(rpc_id));
  ServerState& state = servers_[server];
  const RpcKey key{client, rpc_id};
  if (state.executed.count(key) > 0) {
    AddViolation("double-execute", server,
                 "rpc " + std::to_string(rpc_id) + " from " + client +
                     " dispatched twice in one incarnation");
  }
  if (state.survived.count(key) > 0) {
    AddViolation("replay-as-execute", server,
                 "rpc " + std::to_string(rpc_id) + " from " + client +
                     " re-executed although its response survived recovery");
  }
  state.executed.insert(key);
}

void SimCheck::OnServerReplay(const std::string& server, const std::string& client,
                              uint64_t rpc_id, bool durable) {
  TraceEvent(server + " replay " + client + "/" + std::to_string(rpc_id) +
             (durable ? "" : " UNDURABLE"));
  if (!durable) {
    AddViolation("undurable-replay", server,
                 "rpc " + std::to_string(rpc_id) + " from " + client +
                     " replayed from a response not yet journaled");
  }
}

void SimCheck::OnServerResponseDurable(const std::string& server,
                                       const std::string& client,
                                       uint64_t rpc_id) {
  // Fires when the response journal write completed AND (under semi-sync
  // replication) the backup's acked watermark covered it -- i.e. the moment
  // the response is released toward the client. Cumulative: a later failover
  // audits this set against what the backup actually holds.
  servers_[server].released_ever.insert({client, rpc_id});
}

void SimCheck::OnServerCrashed(const std::string& server) {
  TraceEvent(server + " server-crash");
  ServerState& state = servers_[server];
  // New incarnation: in-flight work that never responded may legally run
  // again; what must not is captured by the recovery's survived set.
  state.executed.clear();
  state.survived.clear();
}

void SimCheck::OnServerRecovered(
    const std::string& server, uint64_t epoch,
    const std::vector<std::pair<std::string, uint64_t>>& survived_responses) {
  TraceEvent(server + " server-recover epoch=" + std::to_string(epoch) + " survived=" +
             std::to_string(survived_responses.size()));
  ServerState& state = servers_[server];
  if (epoch < state.epoch) {
    AddViolation("epoch-regression", server,
                 "recovered epoch " + std::to_string(epoch) + " < previous " +
                     std::to_string(state.epoch));
  }
  state.epoch = epoch;
  state.survived = std::set<RpcKey>(survived_responses.begin(), survived_responses.end());
}

void SimCheck::OnFailover(
    const std::string& failed_primary, const std::string& backup, uint64_t epoch,
    const std::vector<std::pair<std::string, uint64_t>>& replicated_responses,
    const std::vector<std::pair<std::string, uint64_t>>& ack_floors) {
  TraceEvent(backup + " failover from=" + failed_primary +
             " epoch=" + std::to_string(epoch) +
             " replicated=" + std::to_string(replicated_responses.size()));
  ServerState& primary = servers_[failed_primary];
  ServerState& promoted = servers_[backup];
  // Fencing: the promotion epoch must exceed every epoch either node has
  // used, so a stale primary (or its in-flight writes) can never be
  // mistaken for the current incarnation.
  if (epoch <= primary.epoch) {
    AddViolation("failover-fencing", backup,
                 "promoted with epoch " + std::to_string(epoch) +
                     " but dead primary " + failed_primary + " reached epoch " +
                     std::to_string(primary.epoch));
  }
  if (epoch < promoted.epoch) {
    AddViolation("epoch-regression", backup,
                 "promotion epoch " + std::to_string(epoch) + " < previous " +
                     std::to_string(promoted.epoch));
  }
  promoted.epoch = epoch;
  // No acknowledged-work loss: every response the primary released (post
  // backup-ack under semi-sync) must be in the backup's replicated set
  // unless the client's ack floor on the backup has passed it (the client
  // holds the response and never asks again) -- or the sender had degraded
  // to async, which withdraws the guarantee for this primary.
  const std::set<RpcKey> replicated(replicated_responses.begin(),
                                    replicated_responses.end());
  const std::map<std::string, uint64_t> floors(ack_floors.begin(), ack_floors.end());
  if (!primary.repl_degraded) {
    for (const RpcKey& key : primary.released_ever) {
      if (replicated.count(key) > 0) {
        continue;
      }
      auto floor = floors.find(key.first);
      if (floor != floors.end() && key.second < floor->second) {
        continue;
      }
      AddViolation("failover-acked-loss", failed_primary,
                   "rpc " + std::to_string(key.second) + " from " + key.first +
                       " was released to the client but is missing from the "
                       "promoted backup " + backup);
    }
  }
  // Resends of replicated keys at the new primary must replay, never
  // re-execute: fold them into the survived set the execute check consults.
  promoted.survived.insert(replicated.begin(), replicated.end());
}

void SimCheck::OnReplicationDegraded(const std::string& primary) {
  TraceEvent(primary + " replication-degraded");
  servers_[primary].repl_degraded = true;
}

void SimCheck::OnSessionImportServed(const std::string& client, const std::string& name,
                                     uint64_t version, uint64_t required, bool ok) {
  TraceEvent(client + " session-import " + name + " v=" + std::to_string(version) +
             " floor=" + std::to_string(required) + (ok ? " ok" : " fail"));
  if (ok && version < required) {
    AddViolation("session-guarantee", client,
                 "import of " + name + " served version " + std::to_string(version) +
                     " below session floor " + std::to_string(required));
  }
}

// --- quiesce audit ---

void SimCheck::CheckQuiesced() {
  if (bed_ == nullptr) {
    return;
  }
  for (RoverClientNode* node : bed_->AllClients()) {
    const std::string& host = node->host_name();
    auto cs = clients_.find(host);
    if (cs != clients_.end()) {
      const std::vector<uint64_t> ids = node->qrpc()->OutstandingIds();
      const std::set<uint64_t> outstanding(ids.begin(), ids.end());
      for (const auto& [id, call] : cs->second.calls) {
        if (!call.tracked) {
          continue;
        }
        if (!ResolvedOrPending(cs->second, id, outstanding)) {
          AddViolation("promise-leak", host,
                       "rpc " + std::to_string(id) +
                           " left outstanding_ without ever resolving");
        }
      }
    }
    // Conservation: at quiesce each gauge equals the structure it mirrors.
    // The gauges and TotalQueueDepth() now read the same incremental
    // counters, so the independent witness is AuditQueues(): a structural
    // walk of every destination queue, skipping tombstones.
    const SchedulerQueueAudit audit = node->transport()->scheduler()->AuditQueues();
    if (!audit.per_dest_consistent) {
      AddViolation("queue-index-drift", host,
                   "a per-destination counter disagrees with its queue walk");
    }
    const size_t actual_depth = node->transport()->scheduler()->TotalQueueDepth();
    if (audit.messages != actual_depth) {
      AddViolation("queue-index-drift", host,
                   "TotalQueueDepth=" + std::to_string(actual_depth) +
                       " but the structural walk counts " +
                       std::to_string(audit.messages));
    }
    const int64_t depth = node->metrics()->GaugeValue("scheduler.queue_depth");
    if (depth != static_cast<int64_t>(audit.messages)) {
      AddViolation("gauge-drift", host,
                   "scheduler.queue_depth=" + std::to_string(depth) +
                       " but scheduler holds " + std::to_string(audit.messages));
    }
    const int64_t qbytes = node->metrics()->GaugeValue("scheduler.queued_payload_bytes");
    if (qbytes != static_cast<int64_t>(audit.payload_bytes)) {
      AddViolation("gauge-drift", host,
                   "scheduler.queued_payload_bytes=" + std::to_string(qbytes) +
                       " but scheduler holds " + std::to_string(audit.payload_bytes));
    }
    const int64_t lbytes = node->metrics()->GaugeValue("qrpc_client.log_bytes");
    const size_t actual_log = node->log()->TotalBytes();
    if (lbytes != static_cast<int64_t>(actual_log)) {
      AddViolation("gauge-drift", host,
                   "qrpc_client.log_bytes=" + std::to_string(lbytes) +
                       " but the stable log holds " + std::to_string(actual_log));
    }
  }
  for (RoverServerNode* node : bed_->AllServers()) {
    if (node->dead()) {
      continue;  // killed primary: its process-level structures are gone
    }
    const std::string& host = node->host_name();
    const SchedulerQueueAudit audit = node->transport()->scheduler()->AuditQueues();
    if (!audit.per_dest_consistent) {
      AddViolation("queue-index-drift", host,
                   "a per-destination counter disagrees with its queue walk");
    }
    if (audit.messages != node->transport()->scheduler()->TotalQueueDepth()) {
      AddViolation("queue-index-drift", host,
                   "TotalQueueDepth disagrees with the structural walk");
    }
    const int64_t depth = node->metrics()->GaugeValue("scheduler.queue_depth");
    if (depth != static_cast<int64_t>(audit.messages)) {
      AddViolation("gauge-drift", host,
                   "scheduler.queue_depth=" + std::to_string(depth) +
                       " but scheduler holds " + std::to_string(audit.messages));
    }
  }
}

}  // namespace check
}  // namespace rover
