// Seeded fault harness for SimCheck -- the one place chaos schedules are
// drawn, run, checked, shrunk, and replayed. A FuzzPlan is a small sorted
// list of fault actions drawn from a seed and executed against a fixed
// two-client workload over seeded flappy links. Which deployment the plan
// runs on and which action kinds MakePlan may draw come from the plan's
// Corpus, one data record per named corpus:
//
//   schedule  crash-restarts (optionally torn), cached-image corruption and
//             coalescing export bursts
//   disk      schedule plus storage faults on every stable device
//   failover  a warm backup server; the primary is killed and the backup
//             promoted one detection delay later
//   overload  client queue/log/call budgets, a concurrency-capped server
//             and a lossy link, plus background prefetch bursts
//
// RunPlan drives the deployment to quiescence under an attached SimCheck,
// then layers harness-level end-to-end checks on top of it: journal
// at-most-once, acknowledged-work durability, refusals that never execute,
// log drain, convergence and epoch accounting on the node serving at the
// end, every scheduled action executed, memory and retry budgets held.
//
// On failure, ShrinkPlan greedily drops actions while the plan keeps
// failing, and FormatRepro/ParseRepro round-trip the minimized schedule as
// a one-line reproducer (`corpus=` may be omitted, meaning schedule):
//
//   SIMCHECK_REPRO corpus=schedule seed=7 plan=burst@20000,client2-crash-tear@20052

#ifndef ROVER_SRC_CHECK_FUZZ_H_
#define ROVER_SRC_CHECK_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/simcheck.h"
#include "src/util/result.h"

namespace rover {
namespace check {

enum class FuzzActionKind {
  kClientCrash,    // crash-restart a client (target: 0 = m1, 1 = m2)
  kServerCrash,    // crash-restart the home server
  kCorruptImage,   // damage m2's cached delta base for "doc"
  kBurst,          // m2 fires a run of coalescing invoke+export generations
  // Storage faults against a node's stable device (target: 0 = m1, 1 = m2,
  // 2 = server WAL). Tokens: clientN-disk-err / -disk-full / -disk-free /
  // -disk-rot / -disk-syncfail (server- for target 2).
  kDiskTransient,  // burst of forced write errors (exceeds the retry budget)
  kDiskFull,       // clamp device capacity to current use (ENOSPC)
  kDiskFree,       // lift the capacity clamp again
  kDiskRot,        // flip bits in a durable record (latent interior rot)
  kDiskSyncFail,   // permanent sync failure (node fail-stops)
  kFailover,       // kill the primary; promote the backup after detection
  kPrefetch,       // m1 prefetches three pages at background priority
};

struct FuzzAction {
  FuzzActionKind kind = FuzzActionKind::kBurst;
  uint64_t at_ms = 0;  // simulated-time offset from epoch
  int target = 0;      // client index for kClientCrash; device for disk kinds
  bool tear = false;   // power cut mid-write for the crash kinds
};

// A named corpus: the deployment a plan runs on plus the action kinds
// MakePlan may draw for it. RunPlan reads only these fields.
struct Corpus {
  const char* name = "";
  uint32_t kinds = 0;  // bit (1 << kind) per FuzzActionKind MakePlan may draw
  // --- deployment ---
  bool backup = false;   // warm backup server; clients carry the failover route
  bool budgets = false;  // client queue/log/call/retry budgets, breaker,
                         // degraded mode; concurrency-capped server
  double link_loss = 0;  // frame loss on every client link
  // m1's journaled token workload: `tokens` server-side adds from 2s on,
  // `token_gap_ms` apart.
  int tokens = 12;
  uint64_t token_gap_ms = 3'000;

  bool Draws(FuzzActionKind kind) const {
    return (kinds >> static_cast<int>(kind)) & 1u;
  }
  // Whether the deployment can run `kind` at all (a repro line may name
  // kinds the corpus does not draw, e.g. a disk fault in schedule): a
  // failover needs the backup, a prefetch the pages that prefetching
  // corpora create.
  bool Deploys(FuzzActionKind kind) const;
};

extern const Corpus kScheduleCorpus;
extern const Corpus kDiskCorpus;
extern const Corpus kFailoverCorpus;
extern const Corpus kOverloadCorpus;

// The corpus with this name, or nullptr.
const Corpus* FindCorpus(const std::string& name);

struct FuzzPlan {
  const Corpus* corpus = &kScheduleCorpus;
  uint64_t seed = 0;
  std::vector<FuzzAction> actions;  // sorted by at_ms
};

struct FuzzRunOptions {
  // Re-introduces the PR-4 coalescing bug (eager predecessor-record
  // withdrawal before the successor is durable). Meta-testing only: the
  // checker must catch it and the shrinker must reduce it.
  bool eager_coalesce_bug = false;
  // Injects the ack-after-failed-flush bug on m2: a call whose stable-log
  // flush terminally failed still gets its durability acknowledgement.
  // Meta-testing only, paired with a clientN-disk-err action.
  bool ack_after_failed_flush_bug = false;
};

struct FuzzOutcome {
  bool ok = false;
  std::vector<Violation> violations;  // SimCheck + harness-level checks
  std::string report;                 // human-readable failure summary
};

// Draws a plan from the seed over a ~55s horizon: one or two coalescing
// bursts, each often shadowed by a torn client crash (the coalescing
// durability window), plus extra faults of the kinds `corpus` draws.
FuzzPlan MakePlan(uint64_t seed, const Corpus& corpus = kScheduleCorpus);

// Builds the corpus's deployment, runs the workload with `plan`'s faults
// injected, drains, and reports every violation found.
FuzzOutcome RunPlan(const FuzzPlan& plan, FuzzRunOptions options = {});

// Greedy minimization: repeatedly re-runs the plan with one action dropped
// and keeps the drop whenever the plan still fails. Returns the (possibly
// unchanged) minimized plan; the input must already fail.
FuzzPlan ShrinkPlan(const FuzzPlan& plan, FuzzRunOptions options = {});

std::string FormatRepro(const FuzzPlan& plan);
Result<FuzzPlan> ParseRepro(const std::string& line);

// Seed specs: "7", "1-64", and comma-separated mixes of both. Rejects empty
// items, non-digits, and reversed ranges.
Result<std::vector<uint64_t>> ParseSeedSpec(const std::string& spec);

// Command line of the fuzz driver:
//   [--corpus NAME] [--eager-bug] SEEDSPEC...   (flags in any order)
//   [--eager-bug] --repro LINE                  (the line names its corpus)
// With no seed spec the seeds are 1..24.
struct FuzzCommand {
  const Corpus* corpus = &kScheduleCorpus;
  std::vector<uint64_t> seeds;
  std::string repro;  // non-empty: replay this line instead of seeds
  FuzzRunOptions run;
};
Result<FuzzCommand> ParseFuzzCommand(const std::vector<std::string>& args);

}  // namespace check
}  // namespace rover

#endif  // ROVER_SRC_CHECK_FUZZ_H_
