// SimCheck: a cross-layer invariant checker for simulated Rover
// deployments. It attaches to a Testbed as an obs::CheckListener, shadows
// the QRPC client/server, access manager, and server store through their
// check hooks, and asserts the toolkit's end-to-end correctness contracts
// after every event plus a whole-deployment audit at quiesce:
//
//   * at-most-once execution: a server never dispatches the same
//     (client, rpc_id) twice within an incarnation, and never re-executes a
//     request whose response survived recovery -- with no exception, however
//     long the client stays away;
//   * no acknowledged-durability loss: a request whose stable-log flush was
//     acknowledged and whose record was not legitimately withdrawn must be
//     re-sent after a client crash, either directly or through the
//     coalescing successor that subsumed it (records lost to DETECTED
//     storage corruption -- quarantined and surfaced as kDataLoss -- are
//     the sanctioned exception);
//   * no ack without durability: a call whose flush terminally failed
//     (retries exhausted, device full, dead device) must never receive a
//     durability acknowledgement;
//   * promise hygiene: every issued QRPC resolves exactly once across the
//     shed / deadline / coalesce / cancel / crash matrix -- no drops, no
//     double-resolves;
//   * session guarantees: an import served to a Session never returns a
//     version below the session's floor (monotonic reads, read-your-writes);
//   * failover safety: a backup promotes with an epoch that fences the dead
//     primary, and every response the primary released to a client is
//     present in the replicated set the backup took over, unless that
//     client's ack floor on the backup has passed it (the client holds the
//     response) or the primary's replication sender had announced degraded
//     (async) shipping;
//   * conservation of accounting: at quiesce, the scheduler and stable-log
//     gauges equal the structures they mirror.
//
// Violations accumulate (up to a cap) instead of aborting, so a fuzz run
// reports everything a schedule flushed out; tests assert `ok()`.

#ifndef ROVER_SRC_CHECK_SIMCHECK_H_
#define ROVER_SRC_CHECK_SIMCHECK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/toolkit.h"
#include "src/obs/check_hooks.h"

namespace rover {
namespace check {

struct Violation {
  std::string invariant;  // e.g. "double-resolve", "durability-loss"
  std::string node;       // host the violation was observed on
  std::string detail;
};

class SimCheck : public obs::CheckListener {
 public:
  SimCheck() = default;

  // Wires this checker into every node of `bed`, current and future.
  void Attach(Testbed* bed);

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  std::string Report() const;

  // Rolling event trace (most recent kTraceCap hook events, timestamped
  // from the bed's clock when attached): the raw material a failing fuzz
  // schedule is diagnosed from.
  const std::vector<std::string>& trace() const { return trace_; }
  std::string TraceTail(size_t n) const;

  // Whole-deployment audit once the bed has drained: promise hygiene
  // (every tracked call resolved, pending, or crash-orphaned) and
  // gauge-vs-structure conservation on every node. Requires Attach().
  void CheckQuiesced();

  // --- obs::CheckListener ---
  void OnCallIssued(const std::string& client, uint64_t rpc_id, bool logged) override;
  void OnCallDurable(const std::string& client, uint64_t rpc_id,
                     uint64_t log_record_id) override;
  void OnCallFlushFailed(const std::string& client, uint64_t rpc_id) override;
  void OnClientStorageQuarantine(const std::string& client,
                                 const std::vector<uint64_t>& log_record_ids) override;
  void OnCallWithdrawn(const std::string& client, uint64_t rpc_id) override;
  void OnCallCoalesced(const std::string& client, uint64_t pred_rpc_id,
                       uint64_t successor_rpc_id) override;
  void OnCallResolved(const std::string& client, uint64_t rpc_id, const char* path,
                      bool ok) override;
  void OnClientCrashed(const std::string& client) override;
  void OnClientRecovered(const std::string& client,
                         const std::vector<uint64_t>& resent) override;
  void OnServerExecute(const std::string& server, const std::string& client,
                       uint64_t rpc_id) override;
  void OnServerReplay(const std::string& server, const std::string& client,
                      uint64_t rpc_id, bool durable) override;
  void OnServerResponseDurable(const std::string& server, const std::string& client,
                               uint64_t rpc_id) override;
  void OnServerCrashed(const std::string& server) override;
  void OnServerRecovered(const std::string& server, uint64_t epoch,
                         const std::vector<std::pair<std::string, uint64_t>>&
                             survived_responses) override;
  void OnFailover(const std::string& failed_primary, const std::string& backup,
                  uint64_t epoch,
                  const std::vector<std::pair<std::string, uint64_t>>& replicated_responses,
                  const std::vector<std::pair<std::string, uint64_t>>& ack_floors) override;
  void OnReplicationDegraded(const std::string& primary) override;
  void OnSessionImportServed(const std::string& client, const std::string& name,
                             uint64_t version, uint64_t required, bool ok) override;

 private:
  struct CallState {
    bool tracked = false;       // we saw OnCallIssued (attach-time leniency)
    bool logged = false;        // written to the stable log at issue
    bool durable_acked = false; // flush acknowledged (committed promise set)
    bool withdrawn = false;     // log record legitimately removed
    int resolutions = 0;        // direct result resolutions observed
    bool satisfied_via_successor = false;  // coalesced pred, successor resolved
    uint64_t subsumed_by = 0;   // successor rpc id, 0 = none
    bool orphaned = false;      // unresolved at a crash, not (yet) resent
    bool loss_flagged = false;  // durability-loss already reported once
    bool flush_failed = false;  // stable-log flush terminally failed
    // Record quarantined (bit rot): acknowledged durability lost, but
    // DETECTED and surfaced -- exempt from the silent durability-loss audit.
    bool storage_lost = false;
    uint64_t log_record_id = 0;  // stable-log record backing the ack
  };
  struct ClientState {
    std::map<uint64_t, CallState> calls;
    bool crash_pending = false;  // crashed, recovery scan not yet run
    // Stable-log record id -> rpc id, built from OnCallDurable; attributes
    // storage-quarantine events to the acknowledged calls they damage.
    std::map<uint64_t, uint64_t> record_to_rpc;
  };
  using RpcKey = std::pair<std::string, uint64_t>;  // (client host, rpc id)
  struct ServerState {
    uint64_t epoch = 0;
    std::set<RpcKey> executed;  // dispatched this incarnation
    std::set<RpcKey> survived;  // responses that survived the last recovery
    // Cumulative across incarnations (never cleared by OnServerCrashed):
    // responses actually RELEASED to a client (under semi-sync replication
    // the release hook fires only after the backup acked). A failover must
    // find each on the backup unless the client's ack floor passed it.
    std::set<RpcKey> released_ever;
    // Replication sender degraded to async: released responses are no
    // longer guaranteed to survive a failover of this primary.
    bool repl_degraded = false;
  };

  void AddViolation(const std::string& invariant, const std::string& node,
                    const std::string& detail);
  void TraceEvent(const std::string& line);
  CallState& Call(const std::string& client, uint64_t rpc_id);
  // True when `rpc_id` or any coalescing successor in its subsumption chain
  // is in `resent`.
  bool InResentChain(const ClientState& state, uint64_t rpc_id,
                     const std::set<uint64_t>& resent) const;
  // Resolved, crash-orphaned, still outstanding, or chained to a call that
  // is -- the quiesce-time definition of a healthy promise.
  bool ResolvedOrPending(const ClientState& state, uint64_t rpc_id,
                         const std::set<uint64_t>& outstanding) const;

  Testbed* bed_ = nullptr;
  std::map<std::string, ClientState> clients_;
  std::map<std::string, ServerState> servers_;
  std::vector<Violation> violations_;
  size_t max_violations_ = 64;
  static constexpr size_t kTraceCap = 4096;
  std::vector<std::string> trace_;
};

}  // namespace check
}  // namespace rover

#endif  // ROVER_SRC_CHECK_SIMCHECK_H_
