// Cross-layer correctness check hooks. Components (QRPC client/server,
// access manager, server store, toolkit nodes) report lifecycle events
// through this interface so an external invariant checker -- SimCheck,
// src/check -- can assert global properties (at-most-once execution,
// acknowledged-durability, session guarantees, promise hygiene) while a
// simulation runs. Every method has an empty default body: production code
// pays one null-pointer test per event and nothing else, and no component
// grows a dependency on the checker.
//
// Identity convention: `client` and `server` are transport host names (the
// same names message headers carry), and rpc ids are the QRPC ids the
// server's completion records are keyed by, so (client, rpc_id) names one
// logical operation across crashes and resends.

#ifndef ROVER_SRC_OBS_CHECK_HOOKS_H_
#define ROVER_SRC_OBS_CHECK_HOOKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rover {
namespace obs {

class CheckListener {
 public:
  virtual ~CheckListener() = default;

  // --- QRPC client engine ---

  // A call entered the engine (fires before admission; an admission refusal
  // is reported as a "admission" resolution of the same id).
  virtual void OnCallIssued(const std::string& client, uint64_t rpc_id, bool logged) {}
  // The call's stable-log record flushed and its committed promise resolved
  // -- the durability acknowledgement. Unlogged calls never fire this.
  // `log_record_id` names the stable-log record backing the ack (0 when the
  // caller does not track it); the checker uses it to attribute later
  // storage-quarantine events to the acknowledged operation.
  virtual void OnCallDurable(const std::string& client, uint64_t rpc_id,
                             uint64_t log_record_id = 0) {}
  // The call's stable-log flush terminally FAILED (retries exhausted, device
  // full, or permanent sync failure): the record never became durable, so no
  // durability acknowledgement may ever be delivered for it. An OnCallDurable
  // after this event is the ack-after-failed-flush bug class.
  virtual void OnCallFlushFailed(const std::string& client, uint64_t rpc_id) {}
  // The call's durable log record was deliberately withdrawn (deadline,
  // shed, cancel): it must NOT be resent after a crash, and its durability
  // obligation is released.
  virtual void OnCallWithdrawn(const std::string& client, uint64_t rpc_id) {}
  // `pred_rpc_id` was withdrawn pre-wire because `successor_rpc_id`
  // supersedes it; the predecessor's operation and result are subsumed by
  // the successor from here on.
  virtual void OnCallCoalesced(const std::string& client, uint64_t pred_rpc_id,
                               uint64_t successor_rpc_id) {}
  // Terminal resolution of the call's result promise. `path` names the exit:
  // "response", "deadline", "shed", "cancel", "admission". Exactly one
  // resolution per issued call (coalesced predecessors resolve implicitly
  // with their successor and are tracked through OnCallCoalesced).
  virtual void OnCallResolved(const std::string& client, uint64_t rpc_id,
                              const char* path, bool ok) {}
  // The client host crashed: every unresolved promise dies with the
  // process; only durable log records survive.
  virtual void OnClientCrashed(const std::string& client) {}
  // Recovery re-sent `resent` rpc ids from the durable log (fires after
  // every RecoverFromLog, crash-triggered or not).
  virtual void OnClientRecovered(const std::string& client,
                                 const std::vector<uint64_t>& resent) {}
  // Recovery (or a proactive scrub) found interior-corrupt stable-log
  // records on `client` and quarantined them. `log_record_ids` are the
  // damaged records; the operations they backed were durability-acknowledged
  // and are now lost, but the loss is DETECTED and surfaced (kDataLoss,
  // counters, conservative re-fetch) rather than silent -- the checker
  // exempts these from its silent-durability-loss invariant.
  virtual void OnClientStorageQuarantine(const std::string& client,
                                         const std::vector<uint64_t>& log_record_ids) {}

  // --- QRPC server engine ---

  // A handler is about to execute for (client, rpc_id) -- the application
  // of the operation. At-most-once means this fires at most once per key
  // within a server incarnation and never for a key whose response
  // survived recovery.
  virtual void OnServerExecute(const std::string& server, const std::string& client,
                               uint64_t rpc_id) {}
  // A duplicate request was answered from the duplicate-response cache.
  // `durable` reports whether the entry's response journal write (when
  // journaling is active) had completed -- replaying an entry whose
  // transaction could still be lost to a crash would acknowledge work the
  // server might forget.
  virtual void OnServerReplay(const std::string& server, const std::string& client,
                              uint64_t rpc_id, bool durable) {}
  // The response journal reported (client, rpc_id)'s transaction durable.
  virtual void OnServerResponseDurable(const std::string& server,
                                       const std::string& client, uint64_t rpc_id) {}
  // Never called: the duplicate cache frees an entry only once the client's
  // ack floor has passed it, so nothing is ever evicted. Kept declared
  // because the benchmark's execution counter (perfbench/) still overrides
  // it to report qrpc.dup_cache_evictions, which now always reads 0.
  virtual void OnServerDupCacheEvict(const std::string& server,
                                     const std::string& client, uint64_t rpc_id) {}
  virtual void OnServerCrashed(const std::string& server) {}
  // Recovery finished: `epoch` is the new incarnation and
  // `survived_responses` the (client, rpc_id) keys whose cached responses
  // were restored -- resends of those keys must replay, never re-execute.
  virtual void OnServerRecovered(
      const std::string& server, uint64_t epoch,
      const std::vector<std::pair<std::string, uint64_t>>& survived_responses) {}

  // --- primary/backup replication ---

  // The backup `backup` promoted itself after `failed_primary` died. `epoch`
  // is the fence the backup adopted (it must exceed every epoch the primary
  // ever used) and `replicated_responses` the (client, rpc_id) keys whose
  // responses the primary shipped before dying -- resends of those keys at
  // the backup must replay, never re-execute. `ack_floors` holds each
  // client's ack floor on the backup. Every response the primary RELEASED to
  // a client must appear in `replicated_responses` unless that client's
  // floor has passed it (no acknowledged work is lost across the failover).
  virtual void OnFailover(
      const std::string& failed_primary, const std::string& backup, uint64_t epoch,
      const std::vector<std::pair<std::string, uint64_t>>& replicated_responses,
      const std::vector<std::pair<std::string, uint64_t>>& ack_floors) {}
  // The primary's replication sender gave up on synchronous shipping (the
  // backup stopped acking past the sync timeout): responses released while
  // degraded are no longer guaranteed to survive a failover, so the checker
  // must stop holding the no-acknowledged-work-loss line for this primary.
  virtual void OnReplicationDegraded(const std::string& primary) {}

  // --- access-manager sessions ---

  // An import tracked by a Session resolved: `version` is what the caller
  // got, `required` the session's RequiredVersion at serve time. Session
  // guarantees demand ok => version >= required.
  virtual void OnSessionImportServed(const std::string& client, const std::string& name,
                                     uint64_t version, uint64_t required, bool ok) {}
};

}  // namespace obs
}  // namespace rover

#endif  // ROVER_SRC_OBS_CHECK_HOOKS_H_
