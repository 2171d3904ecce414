#include "src/qrpc/qrpc.h"

#include <algorithm>
#include <utility>

#include "src/obs/cpu_scope.h"
#include "src/util/logging.h"

namespace rover {
namespace {

constexpr uint8_t kLogRecordRequest = 1;

const obs::Schema<QrpcClientStats> kClientMetrics(
    "qrpc_client",
    {{"calls", &QrpcClientStats::calls},
     {"completed", &QrpcClientStats::completed},
     {"recovered", &QrpcClientStats::recovered},
     {"cancelled", &QrpcClientStats::cancelled},
     {"deadline_exceeded", &QrpcClientStats::deadline_exceeded},
     {"admission_rejected", &QrpcClientStats::admission_rejected},
     {"background_shed", &QrpcClientStats::background_shed},
     {"pushback_honored", &QrpcClientStats::pushback_honored},
     {"pushback_budget_exhausted", &QrpcClientStats::pushback_budget_exhausted},
     {"coalesced", &QrpcClientStats::coalesced},
     {"recovered_retries", &QrpcClientStats::recovered_retries},
     {"storage_flush_failures", &QrpcClientStats::storage_flush_failures},
     {"storage_refused", &QrpcClientStats::storage_refused},
     {"storage_degraded_entered", &QrpcClientStats::storage_degraded_entered},
     {"storage_quarantined_calls", &QrpcClientStats::storage_quarantined_calls},
     {"failovers", &QrpcClientStats::failovers},
     {"failover_redispatches", &QrpcClientStats::failover_redispatches},
     {"storage_degraded", &QrpcClientStats::storage_degraded},
     {"log_bytes", &QrpcClientStats::log_bytes}},
    {"rpc_seconds"});

const obs::Schema<QrpcServerStats> kServerMetrics(
    "qrpc_server",
    {{"requests", &QrpcServerStats::requests},
     {"duplicates", &QrpcServerStats::duplicates},
     {"unknown_methods", &QrpcServerStats::unknown_methods},
     {"auth_failures", &QrpcServerStats::auth_failures},
     {"duplicate_cache_decode_failures", &QrpcServerStats::duplicate_cache_decode_failures},
     {"requests_rejected", &QrpcServerStats::requests_rejected},
     {"requests_rejected_storage", &QrpcServerStats::requests_rejected_storage},
     {"stale_requests_dropped", &QrpcServerStats::stale_requests_dropped},
     {"inflight_requests", &QrpcServerStats::inflight_requests}});

}  // namespace

QrpcClient::QrpcClient(EventLoop* loop, TransportManager* transport, StableLog* log,
                       QrpcClientOptions options)
    : loop_(loop), transport_(transport), log_(log), options_(options),
      pushback_budget_(options.pushback_budget_capacity,
                       options.pushback_budget_refill_per_sec) {
  if (log_ != nullptr) {
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
  }
  transport_->SetHandler(MessageType::kResponse,
                         [this](const Message& msg) { HandleResponse(msg); });
  if (!options_.failover_primary.empty() && !options_.failover_backup.empty()) {
    // Failure detector: the scheduler force-opens the primary's breaker when
    // no link to it will ever come up again (or enough sends failed), which
    // is this client's cue to fail over.
    transport_->scheduler()->SetBreakerObserver(
        [this, alive = std::weak_ptr<char>(alive_)](const std::string& dest,
                                                    BreakerState state) {
          if (alive.expired() || failover_engaged_) {
            return;
          }
          if (dest == options_.failover_primary && state == BreakerState::kOpen) {
            ROVER_LOG(Info) << self() << ": breaker open on primary " << dest
                            << "; failing over to " << options_.failover_backup;
            TriggerFailover();
          }
        });
  }
}

void QrpcClient::BindMetrics(obs::Registry* registry) {
  metrics_binding_ = registry->Bind(kClientMetrics, &stats_, {&rpc_seconds_});
}

const std::string& QrpcClient::ResolveDest(const std::string& dest) const {
  if (failover_engaged_ && dest == options_.failover_primary) {
    return options_.failover_backup;
  }
  return dest;
}

size_t QrpcClient::TriggerFailover() {
  if (options_.failover_primary.empty() || options_.failover_backup.empty()) {
    return 0;
  }
  const bool first = !failover_engaged_;
  failover_engaged_ = true;
  if (first) {
    ++stats_.failovers;
  }
  // Queued (never-transmitted) messages move wholesale, preserving order.
  const std::vector<uint64_t> rebound = transport_->scheduler()->RebindDestination(
      options_.failover_primary, options_.failover_backup);
  std::set<uint64_t> rebound_set(rebound.begin(), rebound.end());
  for (uint64_t id : rebound) {
    Trace(id, obs::RpcEvent::kFailover);
  }
  // Calls already on the wire get a fresh dispatch from their retained
  // bodies: whatever the primary never answered is re-sent to the backup,
  // whose replicated duplicate cache dedupes anything already executed.
  std::vector<uint64_t> redispatch;
  for (const auto& [id, out] : outstanding_) {
    if (out.dest == options_.failover_primary && out.dispatched &&
        rebound_set.count(id) == 0 && !out.body.empty()) {
      redispatch.push_back(id);
    }
  }
  for (uint64_t id : redispatch) {
    auto it = outstanding_.find(id);
    if (it == outstanding_.end()) {
      continue;  // resolved by an earlier re-dispatch's synchronous refusal
    }
    QrpcCallOptions call_options;
    call_options.priority = it->second.priority;
    ++stats_.failover_redispatches;
    Trace(id, obs::RpcEvent::kFailover);
    DispatchToScheduler(id, it->second.dest, it->second.body, call_options);
  }
  if (first && epoch_observer_) {
    // The logical server "restarted": volatile state (subscriptions) on the
    // dead primary is gone, and the backup answers with a fenced epoch. Fire
    // the same signal a natural epoch bump would, so the access layer
    // stale-marks and re-subscribes without waiting for the next response.
    epoch_observer_(options_.failover_primary,
                    LastSeenEpoch(options_.failover_primary) + 1);
  }
  return rebound.size() + redispatch.size();
}

uint64_t QrpcClient::LastSeenEpoch(const std::string& server) const {
  auto it = seen_server_epochs_.find(server);
  return it == seen_server_epochs_.end() ? 0 : it->second;
}

void QrpcClient::ObserveServerEpoch(const std::string& server, uint64_t epoch) {
  uint64_t& seen = seen_server_epochs_[server];
  if (seen == 0) {
    seen = epoch;  // first contact: nothing to compare against
    return;
  }
  if (epoch > seen) {
    seen = epoch;
    if (epoch_observer_) {
      epoch_observer_(server, epoch);
    }
  }
}

void QrpcClient::Trace(uint64_t rpc_id, obs::RpcEvent event) {
  if (tracer_ != nullptr) {
    tracer_->Record(rpc_id, event, loop_->now());
  }
}

Bytes QrpcClient::EncodeLogRecord(uint64_t rpc_id, const std::string& dest,
                                  const QrpcCallOptions& call_options, const Buffer& body) {
  WireWriter writer;
  writer.Reserve(32 + dest.size() + call_options.relay_host.size() + body.size());
  writer.WriteVarint(kLogRecordRequest);
  writer.WriteVarint(rpc_id);
  writer.WriteString(dest);
  writer.WriteVarint(static_cast<uint64_t>(call_options.priority));
  writer.WriteBool(call_options.via_relay);
  writer.WriteString(call_options.relay_host);
  writer.WriteVarint(body.size());
  // The one charged copy on the durable path: body bytes land in the record.
  ChargePayloadCopy(body.size());
  writer.WriteRaw(body.data(), body.size());
  return writer.TakeData();
}

Result<QrpcClient::ParsedLogRecord> QrpcClient::DecodeLogRecord(const Buffer& data) {
  WireReader reader(data.data(), data.size());
  ROVER_ASSIGN_OR_RETURN(uint64_t kind, reader.ReadVarint());
  if (kind != kLogRecordRequest) {
    return InvalidArgumentError("not a qrpc request log record");
  }
  ParsedLogRecord out;
  ROVER_ASSIGN_OR_RETURN(out.rpc_id, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(out.dest, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(uint64_t priority, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(out.call_options.via_relay, reader.ReadBool());
  ROVER_ASSIGN_OR_RETURN(out.call_options.relay_host, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(uint64_t body_len, reader.ReadVarint());
  if (body_len > reader.remaining()) {
    return DataLossError("truncated body in log record");
  }
  ROVER_ASSIGN_OR_RETURN(const uint8_t* body_ptr, reader.ReadRaw(body_len));
  // The body is a slice of the record's storage: recovery re-dispatch pays
  // no copy.
  out.body = data.Slice(static_cast<size_t>(body_ptr - data.data()), body_len);
  if (priority >= kNumPriorities) {
    return InvalidArgumentError("bad priority in log record");
  }
  out.call_options.priority = static_cast<Priority>(priority);
  return out;
}

uint64_t QrpcClient::AckFloor(uint64_t rpc_id) {
  uint64_t floor = rpc_id;
  if (!outstanding_.empty()) {
    floor = std::min(floor, outstanding_.begin()->first);
  }
  const uint64_t front = log_ == nullptr ? 0 : log_->FrontRecordId();
  if (front == 0) {
    return floor;
  }
  if (front != log_front_record_) {
    // Records are appended in rpc-id order, so the front holds the lowest
    // id in the log. An unreadable front gives no information: floor 0.
    log_front_record_ = front;
    log_front_rpc_id_ = 0;
    if (const StableLog::Record* rec = log_->FindRecord(front)) {
      if (auto payload = log_->RecordPayload(*rec); payload.ok()) {
        if (auto parsed = DecodeLogRecord(*payload); parsed.ok()) {
          log_front_rpc_id_ = parsed->rpc_id;
        }
      }
    }
  }
  return std::min(floor, log_front_rpc_id_);
}

bool QrpcClient::OverBudget(size_t record_size, bool logged) const {
  if (options_.max_outstanding_calls > 0 &&
      outstanding_.size() + 1 > options_.max_outstanding_calls) {
    return true;
  }
  if (logged && options_.max_log_bytes > 0 && log_ != nullptr &&
      log_->TotalBytes() + record_size > options_.max_log_bytes) {
    return true;
  }
  return false;
}

QrpcCall QrpcClient::Call(const std::string& dest, const std::string& method, RpcArgs args,
                          QrpcCallOptions call_options) {
  ++stats_.calls;
  QrpcCall call;
  call.rpc_id = next_rpc_id_++;
  Trace(call.rpc_id, obs::RpcEvent::kEnqueued);
  if (check_ != nullptr) {
    check_->OnCallIssued(self(), call.rpc_id,
                         call_options.log_request && log_ != nullptr);
  }

  RpcRequestBody request;
  request.method = method;
  request.args = std::move(args);
  request.ack_floor = AckFloor(call.rpc_id);
  // One allocation for the body's whole lifetime: retained copy, queued
  // message payload, and failover re-dispatch all share it by refcount.
  Buffer body(request.Encode());

  const bool logged = call_options.log_request && log_ != nullptr;
  Bytes record;
  if (logged) {
    record = EncodeLogRecord(call.rpc_id, dest, call_options, body);
  }

  // Admission: over budget, background is refused outright; anything higher
  // sheds outstanding background calls first and is refused only if that
  // frees no room. Refusal precedes the log append, so nothing durable is
  // ever discarded -- the caller gets an explicit kResourceExhausted.
  if (OverBudget(record.size(), logged)) {
    if (call_options.priority != Priority::kBackground) {
      while (OverBudget(record.size(), logged) && ShedBackgroundCalls(1) > 0) {
      }
    }
    if (OverBudget(record.size(), logged)) {
      ++stats_.admission_rejected;
      Trace(call.rpc_id, obs::RpcEvent::kShed);
      call.committed.Set(loop_->now());
      QrpcResult result;
      result.status = ResourceExhaustedError("qrpc admission: over call/log budget");
      result.completed_at = loop_->now();
      if (check_ != nullptr) {
        check_->OnCallResolved(self(), call.rpc_id, "admission", false);
      }
      call.result.Set(std::move(result));
      return call;
    }
  }

  // Storage admission: a durable enqueue the device cannot hold is refused
  // up front with kResourceExhausted (degraded storage mode), never accepted
  // and then failed at flush time. Recovery is automatic -- the next call
  // after truncation frees room clears the mode.
  if (logged && !log_->HasSpaceFor(record.size())) {
    EnterStorageDegraded();
    ++stats_.storage_refused;
    Trace(call.rpc_id, obs::RpcEvent::kShed);
    call.committed.Set(loop_->now());
    QrpcResult result;
    result.status =
        ResourceExhaustedError("qrpc admission: stable device full (storage degraded)");
    result.completed_at = loop_->now();
    if (check_ != nullptr) {
      check_->OnCallResolved(self(), call.rpc_id, "admission", false);
    }
    call.result.Set(std::move(result));
    return call;
  }
  MaybeClearStorageDegraded();

  Outstanding out;
  out.call = call;
  out.dest = dest;
  out.priority = call_options.priority;
  out.issued_at = loop_->now();
  out.supersede_key = call_options.supersede_key;
  out.body = body;  // retained for failover re-dispatch

  // Coalescing happens only after this call is admitted: withdrawing the
  // predecessor first and then refusing the successor would drop a queued
  // operation, which coalescing must never do.
  if (options_.coalesce_superseded && !call_options.supersede_key.empty()) {
    TryCoalescePredecessor(dest, call_options.supersede_key, out);
  }

  const Duration marshal_cost =
      options_.marshal_fixed +
      Duration::Seconds(static_cast<double>(body.size()) / options_.marshal_bytes_per_sec);

  if (logged) {
    out.log_record_id = log_->Append(std::move(record));
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
    Trace(call.rpc_id, obs::RpcEvent::kLogged);
  }
  outstanding_.emplace(call.rpc_id, std::move(out));
  if (!call_options.supersede_key.empty()) {
    supersede_index_[{dest, call_options.supersede_key}] = call.rpc_id;
  }

  const uint64_t rpc_id = call.rpc_id;
  if (!call_options.deadline.is_zero()) {
    outstanding_[rpc_id].deadline_event = loop_->ScheduleAfter(
        call_options.deadline, [this, rpc_id, alive = std::weak_ptr<char>(alive_)] {
          if (!alive.expired()) {
            HandleDeadline(rpc_id);
          }
        });
  }
  loop_->ScheduleAfter(marshal_cost, [this, rpc_id, dest, body, call_options,
                                      alive = std::weak_ptr<char>(alive_)] {
    if (alive.expired()) {
      return;  // client torn down (simulated crash) before marshalling ran
    }
    auto it = outstanding_.find(rpc_id);
    if (it == outstanding_.end()) {
      return;  // cancelled or already handled
    }
    if (it->second.log_record_id != 0) {
      // Durability point: flush before the scheduler may transmit.
      log_->Flush([this, rpc_id, dest, body, call_options,
                   alive = std::weak_ptr<char>(alive_)](const Status& flush_status) {
        if (alive.expired()) {
          return;  // the log survives a crash; this client did not
        }
        auto it2 = outstanding_.find(rpc_id);
        if (it2 == outstanding_.end()) {
          return;
        }
        if (!flush_status.ok()) {
          if (check_ != nullptr) {
            check_->OnCallFlushFailed(self(), rpc_id);
          }
          if (!options_.unsafe_ack_despite_flush_failure_for_test) {
            HandleFlushFailure(rpc_id, flush_status);
            return;
          }
          // TEST-ONLY bug: fall through and acknowledge a record that never
          // became durable.
        }
        Trace(rpc_id, obs::RpcEvent::kFlushedDurable);
        it2->second.call.committed.Set(loop_->now());
        if (check_ != nullptr) {
          check_->OnCallDurable(self(), rpc_id, it2->second.log_record_id);
        }
        // This record is durable, so any predecessors it superseded can
        // now safely leave the log.
        ResolveCoalescedPreds(it2->second);
        DispatchToScheduler(rpc_id, dest, body, call_options);
      });
    } else {
      it->second.call.committed.Set(loop_->now());
      DispatchToScheduler(rpc_id, dest, body, call_options);
    }
  });
  return call;
}

void QrpcClient::ForgetSupersedeKey(const Outstanding& out, uint64_t rpc_id) {
  if (out.supersede_key.empty()) {
    return;
  }
  auto it = supersede_index_.find({out.dest, out.supersede_key});
  if (it != supersede_index_.end() && it->second == rpc_id) {
    supersede_index_.erase(it);
  }
}

bool QrpcClient::TryCoalescePredecessor(const std::string& dest, const std::string& key,
                                        Outstanding& successor) {
  auto idx = supersede_index_.find({dest, key});
  if (idx == supersede_index_.end()) {
    return false;
  }
  const uint64_t pred_id = idx->second;
  auto it = outstanding_.find(pred_id);
  if (it == outstanding_.end()) {
    supersede_index_.erase(idx);  // stale entry; should not happen
    return false;
  }
  // Safe to withdraw only before the request reaches the wire: either it
  // was never handed to the scheduler (pending marshal/flush callbacks
  // re-check outstanding_ and bail), or the scheduler still holds it queued
  // and agrees to cancel. A message in flight or already transmitted may
  // execute at the server, so its own response must resolve it.
  if (it->second.dispatched &&
      !transport_->scheduler()->CancelMessage(ResolveDest(dest), pred_id)) {
    return false;
  }
  Outstanding pred = std::move(it->second);
  outstanding_.erase(it);
  supersede_index_.erase(idx);
  if (pred.deadline_event != kInvalidEventId) {
    loop_->Cancel(pred.deadline_event);
  }
  // "Old log entries can be deleted when new operations supersede them"
  // (§5.2) -- but not before the successor's own record is durable: the
  // predecessor's record may already be flushed with its durability
  // acknowledged, and removing it while the successor's record is not yet
  // on disk opens a crash window where neither survives and an
  // acknowledged operation is silently lost. Stash it on the successor
  // (together with any records the predecessor itself inherited) and defer
  // to ResolveCoalescedPreds(); until then a crash conservatively resends
  // the predecessor.
  successor.coalesced_preds.reserve(successor.coalesced_preds.size() +
                                    pred.coalesced_preds.size() + 1);
  for (CoalescedPred& inherited : pred.coalesced_preds) {
    successor.coalesced_preds.push_back(std::move(inherited));
  }
  if (pred.log_record_id != 0 && log_ != nullptr) {
    if (options_.unsafe_eager_coalesce_withdraw_for_test) {
      // Deliberately wrong (see QrpcClientOptions): drop the predecessor's
      // record now, before the successor's record is durable.
      log_->RemoveRecord(pred.log_record_id);
      answered_log_records_.erase(pred.log_record_id);
      stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
      if (!pred.call.committed.ready()) {
        pred.call.committed.Set(loop_->now());
      }
    } else {
      successor.coalesced_preds.push_back({pred.log_record_id, pred.call.committed});
    }
  } else if (!pred.call.committed.ready()) {
    // Nothing durable at stake for an unlogged predecessor.
    pred.call.committed.Set(loop_->now());
  }
  ++stats_.coalesced;
  Trace(pred_id, obs::RpcEvent::kCoalesced);
  if (check_ != nullptr) {
    check_->OnCallCoalesced(self(), pred_id, successor.call.rpc_id);
  }
  // The predecessor's promise resolves with whatever the successor
  // produces -- exactly once, and transitively if the successor is itself
  // later superseded. This chain callback is attached before the caller
  // can attach its own successor callbacks, so predecessor waiters observe
  // the result first (in issue order).
  successor.call.result.OnReady(
      [pred_result = pred.call.result](const QrpcResult& r) mutable {
        if (!pred_result.ready()) {
          pred_result.Set(r);
        }
      });
  return true;
}

void QrpcClient::ResolveCoalescedPreds(Outstanding& out) {
  if (out.coalesced_preds.empty()) {
    return;
  }
  for (CoalescedPred& pred : out.coalesced_preds) {
    if (log_ != nullptr) {
      log_->RemoveRecord(pred.log_record_id);
      answered_log_records_.erase(pred.log_record_id);
    }
    if (!pred.committed.ready()) {
      pred.committed.Set(loop_->now());
    }
  }
  out.coalesced_preds.clear();
  if (log_ != nullptr) {
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
  }
}

void QrpcClient::HandleDeadline(uint64_t rpc_id) {
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return;  // answered or cancelled in the same tick
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  // Withdraw the durable record and the queued message through the same
  // machinery as Cancel(): an expired request must not be resent after a
  // crash, and must not occupy queue space waiting for connectivity.
  if (out.log_record_id != 0 && log_ != nullptr) {
    log_->RemoveRecord(out.log_record_id);
    answered_log_records_.erase(out.log_record_id);
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
    if (check_ != nullptr) {
      check_->OnCallWithdrawn(self(), rpc_id);
    }
  }
  transport_->scheduler()->CancelMessage(ResolveDest(out.dest), rpc_id);
  // Coalesced predecessors resolve with this call's deadline error and
  // must likewise not be resent after a crash.
  ResolveCoalescedPreds(out);
  ++stats_.deadline_exceeded;
  Trace(rpc_id, obs::RpcEvent::kDeadlineExceeded);
  // Resolve both promises: a waiter on `committed` must not hang on a call
  // that exited the engine before its flush completed.
  if (!out.call.committed.ready()) {
    out.call.committed.Set(loop_->now());
  }
  QrpcResult result;
  result.status = DeadlineExceededError("rpc deadline exceeded");
  result.completed_at = loop_->now();
  if (check_ != nullptr) {
    check_->OnCallResolved(self(), rpc_id, "deadline", false);
  }
  out.call.result.Set(std::move(result));
}

size_t QrpcClient::ShedBackgroundCalls(size_t needed) {
  // Newest first: an older background call has been waiting longer and is
  // more likely to already be on the wire.
  std::vector<uint64_t> victims;
  for (auto it = outstanding_.rbegin(); it != outstanding_.rend() && victims.size() < needed;
       ++it) {
    // Crash-recovered calls carry a durable obligation with no live caller
    // to observe a refusal; they are never shed.
    if (it->second.priority == Priority::kBackground && !it->second.recovered) {
      victims.push_back(it->first);
    }
  }
  for (uint64_t rpc_id : victims) {
    HandleSchedulerDrop(rpc_id, ResourceExhaustedError("background call shed under pressure"));
  }
  return victims.size();
}

void QrpcClient::HandleSchedulerDrop(uint64_t rpc_id, const Status& status) {
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return;  // already answered, cancelled, or deadline-expired
  }
  if (it->second.recovered && it->second.log_record_id != 0 && log_ != nullptr) {
    // A crash-recovered request is the stable-log record of an operation
    // whose caller died with the old incarnation. Nobody observes a shed
    // status, and withdrawing the record would silently lose an
    // acknowledged-durable update -- keep it and re-dispatch once the
    // scheduler has drained.
    RetryRecoveredDispatch(rpc_id);
    return;
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  if (out.deadline_event != kInvalidEventId) {
    loop_->Cancel(out.deadline_event);
  }
  // Withdraw the durable record: a shed request must not resurrect on crash
  // recovery, and its bytes must stop counting against the log budget.
  if (out.log_record_id != 0 && log_ != nullptr) {
    log_->RemoveRecord(out.log_record_id);
    answered_log_records_.erase(out.log_record_id);
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
    if (check_ != nullptr) {
      check_->OnCallWithdrawn(self(), rpc_id);
    }
  }
  transport_->scheduler()->CancelMessage(ResolveDest(out.dest), rpc_id);
  ResolveCoalescedPreds(out);
  ++stats_.background_shed;
  Trace(rpc_id, obs::RpcEvent::kShed);
  if (!out.call.committed.ready()) {
    out.call.committed.Set(loop_->now());
  }
  if (!out.call.result.ready()) {
    QrpcResult result;
    result.status = status;
    result.completed_at = loop_->now();
    if (check_ != nullptr) {
      check_->OnCallResolved(self(), rpc_id, "shed", false);
    }
    out.call.result.Set(std::move(result));
  }
}

void QrpcClient::RetryRecoveredDispatch(uint64_t rpc_id) {
  ++stats_.recovered_retries;
  loop_->ScheduleAfter(
      options_.recovered_retry_backoff,
      [this, rpc_id, alive = std::weak_ptr<char>(alive_)] {
        if (alive.expired()) {
          return;  // crashed again: the record is still logged, the next
                   // incarnation's RecoverFromLog resends it
        }
        auto it = outstanding_.find(rpc_id);
        if (it == outstanding_.end()) {
          return;  // answered or cancelled meanwhile
        }
        const StableLog::Record* rec =
            log_ == nullptr ? nullptr : log_->FindRecord(it->second.log_record_id);
        if (rec == nullptr) {
          return;
        }
        auto payload = log_->RecordPayload(*rec);
        if (!payload.ok()) {
          // Latent corruption surfaced at read time: the record can never be
          // re-sent. Quarantine it instead of leaving the call parked on a
          // record that will fail every future read.
          FailQuarantinedRecords({it->second.log_record_id});
          return;
        }
        auto parsed = DecodeLogRecord(*payload);
        if (!parsed.ok()) {
          FailQuarantinedRecords({it->second.log_record_id});
          return;
        }
        DispatchToScheduler(rpc_id, parsed->dest, std::move(parsed->body),
                            parsed->call_options);
      });
}

void QrpcClient::EnterStorageDegraded() {
  if (storage_degraded_) {
    return;
  }
  storage_degraded_ = true;
  ++stats_.storage_degraded_entered;
  stats_.storage_degraded = 1;
}

void QrpcClient::MaybeClearStorageDegraded() {
  if (!storage_degraded_ || log_ == nullptr || !log_->HasSpaceFor(0)) {
    return;
  }
  storage_degraded_ = false;
  stats_.storage_degraded = 0;
}

void QrpcClient::FailCallOnStorage(uint64_t rpc_id, const Status& status) {
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return;
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  if (out.deadline_event != kInvalidEventId) {
    loop_->Cancel(out.deadline_event);
  }
  if (out.log_record_id != 0 && log_ != nullptr) {
    // The record is either non-durable (failed flush) or already quarantined
    // out of the log; RemoveRecord is a no-op in the latter case.
    log_->RemoveRecord(out.log_record_id);
    answered_log_records_.erase(out.log_record_id);
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
  }
  transport_->scheduler()->CancelMessage(ResolveDest(out.dest), rpc_id);
  // Predecessors this call coalesced resolve with its storage error, the
  // same shape as the deadline and shed exits.
  ResolveCoalescedPreds(out);
  Trace(rpc_id, obs::RpcEvent::kShed);
  if (!out.call.committed.ready()) {
    // Unblocks waiters; this is NOT a durability acknowledgement -- the
    // result carries the storage error and OnCallDurable never fired.
    out.call.committed.Set(loop_->now());
  }
  if (!out.call.result.ready()) {
    QrpcResult result;
    result.status = status;
    result.completed_at = loop_->now();
    if (check_ != nullptr) {
      check_->OnCallResolved(self(), rpc_id, "storage", false);
    }
    out.call.result.Set(std::move(result));
  }
}

void QrpcClient::HandleFlushFailure(uint64_t rpc_id, const Status& status) {
  ++stats_.storage_flush_failures;
  if (status.code() == StatusCode::kResourceExhausted) {
    EnterStorageDegraded();
  }
  FailCallOnStorage(rpc_id, status);
}

size_t QrpcClient::FailQuarantinedRecords(const std::vector<uint64_t>& log_record_ids) {
  size_t failed = 0;
  for (uint64_t record_id : log_record_ids) {
    uint64_t rpc_id = 0;
    bool found = false;
    for (const auto& [id, out] : outstanding_) {
      if (out.log_record_id == record_id) {
        rpc_id = id;
        found = true;
        break;
      }
    }
    if (!found) {
      continue;  // no live call backed by this record (e.g. crash recovery)
    }
    ++stats_.storage_quarantined_calls;
    FailCallOnStorage(rpc_id,
                      DataLossError("stable log record quarantined (bit rot)"));
    ++failed;
  }
  return failed;
}

void QrpcClient::DispatchToScheduler(uint64_t rpc_id, const std::string& dest, Buffer body,
                                     const QrpcCallOptions& call_options) {
  if (auto it = outstanding_.find(rpc_id); it != outstanding_.end()) {
    it->second.dispatched = true;
  }
  Message msg;
  msg.header.message_id = rpc_id;
  msg.header.type = MessageType::kRequest;
  msg.header.priority = call_options.priority;
  msg.header.dst = ResolveDest(dest);
  msg.payload = std::move(body);
  if (call_options.via_relay) {
    // Ask the server to route the response back through the same relay.
    msg.header.reply_via = call_options.relay_host;
    transport_->SendViaRelay(call_options.relay_host, std::move(msg));
  } else {
    // The scheduler may refuse or shed this message under queue pressure
    // (background priority only); the call must then resolve instead of
    // waiting forever on a request that will never be transmitted.
    transport_->Send(std::move(msg),
                     [this, rpc_id, alive = std::weak_ptr<char>(alive_)](const Status& s) {
                       if (!alive.expired() &&
                           s.code() == StatusCode::kResourceExhausted) {
                         HandleSchedulerDrop(rpc_id, s);
                       }
                     });
  }
}

bool QrpcClient::MaybeHonorPushback(const Message& msg, const RpcResponseBody& body) {
  if (body.code != StatusCode::kUnavailable || body.retry_after_micros == 0) {
    return false;
  }
  const uint64_t rpc_id = msg.header.in_reply_to;
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return false;
  }
  const Outstanding& out = it->second;
  if (out.log_record_id == 0 || log_ == nullptr) {
    return false;  // unlogged call: no durable copy to re-send; surface the error
  }
  if (!pushback_budget_.enabled() || !pushback_budget_.TryConsume(loop_->now())) {
    if (pushback_budget_.enabled()) {
      ++stats_.pushback_budget_exhausted;
    }
    return false;  // server keeps refusing; let the caller see kUnavailable
  }
  const StableLog::Record* rec = log_->FindRecord(out.log_record_id);
  if (rec == nullptr) {
    return false;
  }
  auto payload = log_->RecordPayload(*rec);
  if (!payload.ok()) {
    return false;
  }
  auto parsed = DecodeLogRecord(*payload);
  if (!parsed.ok()) {
    return false;
  }
  // The server told us when it expects to have capacity again; the hint is
  // clamped so a corrupt or hostile value cannot park the call forever.
  const Duration retry_after =
      std::min(Duration::Micros(static_cast<int64_t>(body.retry_after_micros)),
               Duration::Seconds(600));
  if (body.server_epoch > 0) {
    ObserveServerEpoch(msg.header.src, body.server_epoch);
  }
  ++stats_.pushback_honored;
  Trace(rpc_id, obs::RpcEvent::kPushback);
  auto parsed_ptr = std::make_shared<ParsedLogRecord>(std::move(*parsed));
  loop_->ScheduleAfter(retry_after,
                       [this, parsed_ptr, alive = std::weak_ptr<char>(alive_)] {
                         if (alive.expired()) {
                           return;  // a crash-recovered client resends from its log
                         }
                         if (outstanding_.count(parsed_ptr->rpc_id) == 0) {
                           return;  // answered or cancelled meanwhile
                         }
                         DispatchToScheduler(parsed_ptr->rpc_id, parsed_ptr->dest,
                                             std::move(parsed_ptr->body),
                                             parsed_ptr->call_options);
                       });
  return true;
}

void QrpcClient::HandleResponse(const Message& msg) {
  const uint64_t rpc_id = msg.header.in_reply_to;
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return;  // duplicate response; at-most-once already satisfied
  }
  QrpcResult result;
  result.completed_at = loop_->now();
  auto body = RpcResponseBody::Decode(msg.payload);
  if (body.ok()) {
    if (MaybeHonorPushback(msg, *body)) {
      return;  // call stays outstanding; re-dispatch is scheduled
    }
    result.status = body->ToStatus();
    result.value = body->result;
    result.server_epoch = body->server_epoch;
  } else {
    result.status = body.status();
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  if (out.deadline_event != kInvalidEventId) {
    loop_->Cancel(out.deadline_event);
  }
  // Observe the epoch before resolving the promise: if the server
  // restarted, cache invalidation must precede the application's reaction
  // to this response.
  if (body.ok() && body->server_epoch > 0) {
    ObserveServerEpoch(msg.header.src, body->server_epoch);
  }
  ++stats_.completed;
  rpc_seconds_.Observe((result.completed_at - out.issued_at).seconds());
  Trace(rpc_id, obs::RpcEvent::kResponded);
  if (out.log_record_id != 0) {
    answered_log_records_.insert(out.log_record_id);
    MaybeTruncateLog();
  }
  // Unlogged successors have no flush point; their coalesced predecessors
  // leave the log here, once the operation has actually executed.
  ResolveCoalescedPreds(out);
  if (check_ != nullptr) {
    check_->OnCallResolved(self(), rpc_id, "response", result.status.ok());
  }
  out.call.result.Set(std::move(result));
}

void QrpcClient::MaybeTruncateLog() {
  if (log_ == nullptr) {
    return;
  }
  uint64_t front = log_->FrontRecordId();
  while (front != 0 && answered_log_records_.count(front) > 0) {
    answered_log_records_.erase(front);
    log_->Truncate(front);
    front = log_->FrontRecordId();
  }
  stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
  // Truncation returns device space: a full disk heals as responses drain.
  MaybeClearStorageDegraded();
}

bool QrpcClient::Cancel(uint64_t rpc_id) {
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return false;
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  if (out.deadline_event != kInvalidEventId) {
    loop_->Cancel(out.deadline_event);
  }
  if (out.log_record_id != 0 && log_ != nullptr) {
    log_->RemoveRecord(out.log_record_id);
    answered_log_records_.erase(out.log_record_id);
    stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
    if (check_ != nullptr) {
      check_->OnCallWithdrawn(self(), rpc_id);
    }
  }
  transport_->scheduler()->CancelMessage(ResolveDest(out.dest), rpc_id);
  ResolveCoalescedPreds(out);
  ++stats_.cancelled;
  Trace(rpc_id, obs::RpcEvent::kCancelled);
  if (!out.call.committed.ready()) {
    out.call.committed.Set(loop_->now());  // left the engine pre-commit
  }
  if (!out.call.result.ready()) {
    QrpcResult result;
    result.status = CancelledError("call cancelled by application");
    result.completed_at = loop_->now();
    if (check_ != nullptr) {
      check_->OnCallResolved(self(), rpc_id, "cancel", false);
    }
    out.call.result.Set(std::move(result));
  }
  return true;
}

std::vector<uint64_t> QrpcClient::OutstandingIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(outstanding_.size());
  for (const auto& [id, out] : outstanding_) {
    ids.push_back(id);
  }
  return ids;
}

size_t QrpcClient::RecoverFromLog() {
  if (log_ == nullptr) {
    return 0;
  }
  std::vector<ParsedLogRecord> resends;
  std::vector<uint64_t> resent_ids;
  for (const StableLog::Record& rec : log_->DurableRecords()) {
    auto payload = log_->RecordPayload(rec);
    if (!payload.ok()) {
      ROVER_LOG(Warning) << "qrpc recovery: skipping undecompressable log record " << rec.id;
      continue;
    }
    auto parsed = DecodeLogRecord(*payload);
    if (!parsed.ok()) {
      ROVER_LOG(Warning) << "qrpc recovery: skipping malformed log record " << rec.id;
      continue;
    }
    next_rpc_id_ = std::max(next_rpc_id_, parsed->rpc_id + 1);

    if (outstanding_.count(parsed->rpc_id) == 0) {
      QrpcCall call;
      call.rpc_id = parsed->rpc_id;
      call.committed.Set(loop_->now());  // it is already durable
      Outstanding out;
      out.call = call;
      out.dest = parsed->dest;
      out.log_record_id = rec.id;
      out.priority = parsed->call_options.priority;
      out.issued_at = loop_->now();
      out.recovered = true;
      out.body = parsed->body;  // retained for failover re-dispatch
      outstanding_.emplace(parsed->rpc_id, std::move(out));
    }
    // If the call is still tracked (same engine survived, e.g. only the
    // device "rebooted"), re-transmission is safe: the server's duplicate
    // cache guarantees at-most-once execution and the existing promise
    // resolves when any response arrives.

    resent_ids.push_back(parsed->rpc_id);
    resends.push_back(std::move(*parsed));
  }
  stats_.log_bytes = static_cast<int64_t>(log_->TotalBytes());
  // Announce the full recovery set before the first re-dispatch: a dispatch
  // can fail synchronously under queue pressure, and any observer must
  // already know those ids belong to the new incarnation.
  if (check_ != nullptr) {
    check_->OnClientRecovered(self(), resent_ids);
  }
  for (ParsedLogRecord& parsed : resends) {
    Trace(parsed.rpc_id, obs::RpcEvent::kRecovered);
    DispatchToScheduler(parsed.rpc_id, parsed.dest, std::move(parsed.body),
                        parsed.call_options);
    ++stats_.recovered;
  }
  return resends.size();
}

QrpcServer::QrpcServer(EventLoop* loop, TransportManager* transport,
                       QrpcServerOptions options)
    : loop_(loop), transport_(transport), options_(options) {
  transport_->SetHandler(MessageType::kRequest,
                         [this](const Message& msg) { HandleRequest(msg); });
}

void QrpcServer::BindMetrics(obs::Registry* registry) {
  metrics_binding_ = registry->Bind(kServerMetrics, &stats_);
}

bool QrpcServer::CorruptCachedResponseForTest(const std::string& client, uint64_t rpc_id) {
  Completion* c = FindCompletion(client, rpc_id);
  if (c == nullptr || c->state == Completion::State::kInProgress) {
    return false;
  }
  // In-place damage through the copy-on-write door: snapshots or journal
  // entries sharing these bytes keep the intact original.
  uint8_t* p = c->response.MutableData();
  for (size_t i = 0; i < c->response.size(); ++i) {
    p[i] = 0xff;  // undecodable garbage (0xff is not a valid status varint)
  }
  if (c->response.empty()) {
    c->response = Buffer(Bytes{0xff, 0xff, 0xff});
  }
  return true;
}

QrpcServer::RecordEntry& QrpcServer::RecordFor(const std::string& client) {
  auto it = records_.find(std::string_view(client));
  if (it == records_.end()) {
    it = records_.emplace(client, ClientRecord{}).first;
  }
  return *it;
}

QrpcServer::Completion* QrpcServer::FindCompletion(std::string_view client, uint64_t rpc_id) {
  auto it = records_.find(client);
  if (it == records_.end()) {
    return nullptr;
  }
  auto c = it->second.completions.find(rpc_id);
  return c == it->second.completions.end() ? nullptr : &c->second;
}

void QrpcServer::RaiseFloor(RecordEntry& entry, uint64_t ack_floor) {
  ClientRecord& record = entry.second;
  if (ack_floor <= record.ack_floor) {
    return;
  }
  record.ack_floor = ack_floor;
  // An entry freed while its handler still runs is simply not cached when
  // the handler responds: the client has already given up on that id.
  record.completions.erase(record.completions.begin(),
                           record.completions.lower_bound(ack_floor));
  MarkChanged(entry);
}

void QrpcServer::MarkChanged(RecordEntry& entry) {
  if (!entry.second.changed) {
    entry.second.changed = true;
    changed_.push_back(&entry);
  }
}

CompletionRecord QrpcServer::ImageOf(const std::string& client, const ClientRecord& record) {
  CompletionRecord image;
  image.client = client;
  image.ack_floor = record.ack_floor;
  image.responses.reserve(record.completions.size());
  for (const auto& [rpc_id, c] : record.completions) {
    // In-progress ids have no response to persist; undurable ones do (a
    // WAL-space reclaim snapshot is what makes them durable).
    if (c.state != Completion::State::kInProgress) {
      image.responses.emplace_back(rpc_id, c.response);
    }
  }
  return image;
}

std::vector<CompletionRecord> QrpcServer::TakeChangedRecords() {
  obs::CpuScope cpu(obs::CpuZone::kDupCache);
  std::vector<CompletionRecord> out;
  out.reserve(changed_.size());
  for (RecordEntry* entry : changed_) {
    entry->second.changed = false;
    out.push_back(ImageOf(entry->first, entry->second));
  }
  changed_.clear();
  return out;
}

std::vector<CompletionRecord> QrpcServer::AllRecords() const {
  std::vector<CompletionRecord> out;
  out.reserve(records_.size());
  for (const auto& [client, record] : records_) {
    out.push_back(ImageOf(client, record));
  }
  // Hash order is not stable across builds; the image is shipped and
  // audited, so give it a deterministic order.
  std::sort(out.begin(), out.end(), [](const CompletionRecord& a, const CompletionRecord& b) {
    return a.client < b.client;
  });
  return out;
}

void QrpcServer::RestoreRecord(const CompletionRecord& image) {
  RecordEntry& entry = RecordFor(image.client);
  RaiseFloor(entry, image.ack_floor);
  for (const auto& [rpc_id, response] : image.responses) {
    if (rpc_id >= entry.second.ack_floor) {
      entry.second.completions[rpc_id] = {Completion::State::kDurable, response};
    }
  }
  MarkChanged(entry);
}

void QrpcServer::RestoreCompletion(const std::string& client, uint64_t ack_floor,
                                   uint64_t rpc_id, Buffer response) {
  RecordEntry& entry = RecordFor(client);
  RaiseFloor(entry, ack_floor);
  if (rpc_id >= entry.second.ack_floor) {
    entry.second.completions[rpc_id] = {Completion::State::kDurable, std::move(response)};
  }
  MarkChanged(entry);
}

uint64_t QrpcServer::AckFloor(const std::string& client) const {
  auto it = records_.find(std::string_view(client));
  return it == records_.end() ? 0 : it->second.ack_floor;
}

void QrpcServer::RegisterHandler(const std::string& method, Handler handler) {
  handlers_[method] = std::move(handler);
}

void QrpcServer::SendResponse(const std::string& dst, uint64_t rpc_id, Priority priority,
                              const std::string& reply_via, RpcResponseBody body) {
  // Stamp the *current* incarnation at send time: a duplicate-cache replay
  // after a restart carries the new epoch, which is exactly the signal the
  // client needs to notice the restart.
  body.server_epoch = epoch_;
  Message msg;
  msg.header.type = MessageType::kResponse;
  msg.header.priority = priority;
  msg.header.dst = dst;
  msg.header.in_reply_to = rpc_id;
  msg.payload = body.Encode();
  if (!reply_via.empty()) {
    transport_->SendViaRelay(reply_via, std::move(msg));
  } else {
    transport_->Send(std::move(msg));
  }
}

void QrpcServer::HandleRequest(const Message& msg) {
  ++stats_.requests;
  if (!options_.accepted_tokens.empty() &&
      options_.accepted_tokens.count(msg.header.auth) == 0) {
    ++stats_.auth_failures;
    RpcResponseBody body;
    body.code = StatusCode::kPermissionDenied;
    body.error_message = "request not authenticated";
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, body);
    return;
  }
  const uint64_t rpc_id = msg.header.message_id;
  {
    obs::CpuScope cpu(obs::CpuZone::kDupCache);
    // Probe with a view over the header -- no std::string is materialized
    // unless this request actually starts executing.
    auto rec = records_.find(std::string_view(msg.header.src));
    if (rec != records_.end()) {
      if (rpc_id < rec->second.ack_floor) {
        // The client resolved this id before it sent its floor past it, and
        // never sends it again: this is a late or duplicated frame. Its
        // entry is gone, so drop it -- executing it would run it twice.
        ++stats_.stale_requests_dropped;
        return;
      }
      auto found = rec->second.completions.find(rpc_id);
      if (found != rec->second.completions.end()) {
        // At-most-once: an in-progress request is dropped (its response is
        // already on the way), a finished one is answered from the cache.
        ++stats_.duplicates;
        const Completion& c = found->second;
        if (c.state == Completion::State::kInProgress) {
          return;
        }
        if (c.state == Completion::State::kUndurable) {
          // The response journal has not reported durable yet: a crash could
          // still lose the transaction this response acknowledges, so a
          // replay now would hand the client an answer the server might
          // forget. Drop the duplicate; the journal-gated original send
          // answers the client anyway.
          return;
        }
        if (check_ != nullptr) {
          // Reports the state as-is rather than asserting it: the gate above
          // makes this always durable, and a regression of that gate then
          // shows up as an undurable-replay violation in SimCheck.
          check_->OnServerReplay(self(), msg.header.src, rpc_id,
                                 /*durable=*/c.state == Completion::State::kDurable);
        }
        auto decoded = RpcResponseBody::Decode(c.response);
        if (!decoded.ok()) {
          // The cached bytes are corrupt. Replying with a default-constructed
          // body would tell the client "OK, empty result" for a request whose
          // real outcome is unknown -- report the loss honestly instead.
          ++stats_.duplicate_cache_decode_failures;
          RpcResponseBody body;
          body.code = StatusCode::kDataLoss;
          body.error_message = "duplicate-response cache entry corrupt";
          SendResponse(msg.header.src, rpc_id, msg.header.priority, msg.header.reply_via,
                       body);
          return;
        }
        SendResponse(msg.header.src, rpc_id, msg.header.priority, msg.header.reply_via,
                     *decoded);
        return;
      }
    }
  }

  // Admission: past the concurrency limit, refuse with kUnavailable and a
  // retry-after hint sized to the backlog. The refusal deliberately skips
  // the duplicate cache -- the client's resend must re-execute, not replay
  // "server overloaded" forever. Duplicates (above) are still answered from
  // the cache even under overload: a replay costs no handler execution.
  if (options_.max_concurrent_requests > 0 &&
      executing_ >= options_.max_concurrent_requests) {
    ++stats_.requests_rejected;
    const Duration hint =
        options_.pushback_retry_after +
        options_.dispatch_cost * static_cast<double>(executing_);
    RpcResponseBody body;
    body.code = StatusCode::kUnavailable;
    body.error_message = "server over concurrency limit";
    body.retry_after_micros = static_cast<uint64_t>(hint.micros());
    SendResponse(msg.header.src, rpc_id, msg.header.priority, msg.header.reply_via, body);
    return;
  }

  // Storage-degraded: the WAL device is full and compaction is reclaiming
  // space. Refuse new work the same way the concurrency limit does --
  // kUnavailable + retry-after, not cached -- rather than executing a
  // mutation whose transaction could not be made durable. Duplicates were
  // already answered above; replays cost no WAL write.
  if (storage_degraded_) {
    ++stats_.requests_rejected;
    ++stats_.requests_rejected_storage;
    RpcResponseBody body;
    body.code = StatusCode::kUnavailable;
    body.error_message = "server storage degraded (WAL device full)";
    body.retry_after_micros =
        static_cast<uint64_t>(options_.pushback_retry_after.micros());
    SendResponse(msg.header.src, rpc_id, msg.header.priority, msg.header.reply_via, body);
    return;
  }

  auto request = RpcRequestBody::Decode(msg.payload);
  if (!request.ok()) {
    RpcResponseBody body;
    body.code = StatusCode::kDataLoss;
    body.error_message = "malformed request";
    SendResponse(msg.header.src, rpc_id, msg.header.priority, msg.header.reply_via, body);
    return;
  }

  Handler* handler = nullptr;
  auto hit = handlers_.find(request->method);
  if (hit != handlers_.end()) {
    handler = &hit->second;
  } else if (default_handler_) {
    handler = &default_handler_;
  }
  if (handler == nullptr) {
    ++stats_.unknown_methods;
    RpcResponseBody body;
    body.code = StatusCode::kUnimplemented;
    body.error_message = "no handler for method " + request->method;
    SendResponse(msg.header.src, rpc_id, msg.header.priority, msg.header.reply_via, body);
    return;
  }

  // The request executes: now build the owning key that outlives the header.
  const std::pair<std::string, uint64_t> key(msg.header.src, rpc_id);
  {
    obs::CpuScope cpu(obs::CpuZone::kDupCache);
    RecordEntry& entry = RecordFor(key.first);
    // The floor never passes the request carrying it: a floor above the
    // request's own id would free the entry this execution is about to fill.
    RaiseFloor(entry, std::min(request->ack_floor, rpc_id));
    entry.second.completions[rpc_id].state = Completion::State::kInProgress;
  }
  ++executing_;
  stats_.inflight_requests = static_cast<int64_t>(executing_);
  const Priority priority = msg.header.priority;
  const std::string reply_via = msg.header.reply_via;
  Responder respond = [this, key, priority, reply_via,
                       alive = std::weak_ptr<char>(alive_)](RpcResponseBody body) {
    if (alive.expired()) {
      return;  // handler outlived the server (simulated crash)
    }
    const std::string& src = key.first;
    const uint64_t rpc_id = key.second;
    --executing_;
    stats_.inflight_requests = static_cast<int64_t>(executing_);
    // Cached/journaled without an epoch stamp. One allocation: the cache
    // entry and the journal's copy share it by refcount.
    Buffer encoded(body.Encode());
    uint64_t ack_floor = 0;
    {
      obs::CpuScope cpu(obs::CpuZone::kDupCache);
      RecordEntry& entry = RecordFor(src);
      ack_floor = entry.second.ack_floor;
      auto c = entry.second.completions.find(rpc_id);
      if (c != entry.second.completions.end()) {
        c->second.state = response_journal_ ? Completion::State::kUndurable
                                            : Completion::State::kDurable;
        c->second.response = encoded;
        MarkChanged(entry);
      }
    }
    if (response_journal_) {
      // Write-ahead: the response leaves only after the journal reports the
      // entry durable. A crash in between means the client never saw an
      // answer and safely resends. Until then the cached entry is not
      // replayed to duplicates either (Completion::State::kUndurable). The
      // journal runs even when the floor already freed the entry: the
      // handler's mutations still need their transaction.
      auto body_ptr = std::make_shared<RpcResponseBody>(std::move(body));
      response_journal_(
          src, rpc_id, ack_floor, encoded,
          [this, key, priority, reply_via, body_ptr, alive2 = std::weak_ptr<char>(alive_)] {
            if (alive2.expired()) {
              return;
            }
            if (Completion* c = FindCompletion(key.first, key.second);
                c != nullptr && c->state == Completion::State::kUndurable) {
              c->state = Completion::State::kDurable;
            }
            if (check_ != nullptr) {
              check_->OnServerResponseDurable(self(), key.first, key.second);
            }
            SendResponse(key.first, key.second, priority, reply_via, std::move(*body_ptr));
          });
    } else {
      SendResponse(src, rpc_id, priority, reply_via, std::move(body));
    }
  };

  // Model dispatch CPU cost, then run the handler. While the handler body
  // executes, current_request() names the request so synchronous store
  // mutations can be attributed to it (transactional journaling).
  auto request_ptr = std::make_shared<RpcRequestBody>(std::move(*request));
  auto envelope_ptr = std::make_shared<Message>(msg);
  loop_->ScheduleAfter(
      options_.dispatch_cost,
      [this, key, handler = *handler, request_ptr, envelope_ptr, respond,
       alive = std::weak_ptr<char>(alive_)] {
        if (alive.expired()) {
          return;  // server torn down before dispatch
        }
        if (check_ != nullptr) {
          check_->OnServerExecute(self(), key.first, key.second);
        }
        current_request_ = key;
        has_current_request_ = true;
        handler(*request_ptr, *envelope_ptr, respond);
        has_current_request_ = false;
      });
}

}  // namespace rover
