#include "src/check/fuzz.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "src/tclite/value.h"
#include "src/util/rng.h"

namespace rover {
namespace check {

namespace {

constexpr uint32_t Bit(FuzzActionKind kind) { return 1u << static_cast<int>(kind); }

constexpr uint32_t kScheduleKinds =
    Bit(FuzzActionKind::kClientCrash) | Bit(FuzzActionKind::kServerCrash) |
    Bit(FuzzActionKind::kCorruptImage) | Bit(FuzzActionKind::kBurst);
// kDiskFree is drawn only paired with a preceding kDiskFull.
constexpr uint32_t kDiskKinds =
    Bit(FuzzActionKind::kDiskTransient) | Bit(FuzzActionKind::kDiskFull) |
    Bit(FuzzActionKind::kDiskFree) | Bit(FuzzActionKind::kDiskRot) |
    Bit(FuzzActionKind::kDiskSyncFail);

}  // namespace

const Corpus kScheduleCorpus = {.name = "schedule", .kinds = kScheduleKinds};
const Corpus kDiskCorpus = {.name = "disk", .kinds = kScheduleKinds | kDiskKinds};
// No server crash: the primary dies for good at the failover instead.
const Corpus kFailoverCorpus = {
    .name = "failover",
    .kinds = (kScheduleKinds & ~Bit(FuzzActionKind::kServerCrash)) |
             Bit(FuzzActionKind::kFailover),
    .backup = true};
// ~2x sustained load: a durable token every 500ms for 20s over a lossy
// link, beside background prefetch bursts.
const Corpus kOverloadCorpus = {
    .name = "overload",
    .kinds = kScheduleKinds | Bit(FuzzActionKind::kPrefetch),
    .budgets = true,
    .link_loss = 0.15,
    .tokens = 40,
    .token_gap_ms = 500};

bool Corpus::Deploys(FuzzActionKind kind) const {
  if (kind == FuzzActionKind::kFailover) {
    return backup;
  }
  return kind != FuzzActionKind::kPrefetch || Draws(kind);
}

const Corpus* FindCorpus(const std::string& name) {
  for (const Corpus* c : {&kScheduleCorpus, &kDiskCorpus, &kFailoverCorpus,
                          &kOverloadCorpus}) {
    if (name == c->name) {
      return c;
    }
  }
  return nullptr;
}

namespace {

constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

constexpr uint64_t kHorizonMs = 60'000;
// 400-byte page objects created for corpora that draw prefetches.
constexpr int kPages = 6;
// Failure-detection delay between the primary's death and the promotion:
// the time real detectors (missed heartbeats, broken connections) need.
constexpr Duration kDetectionDelay = Duration::Millis(200);

// Every repro token and the action it stands for.
const std::vector<std::pair<std::string, FuzzAction>>& Tokens() {
  using K = FuzzActionKind;
  static const std::vector<std::pair<std::string, FuzzAction>> tokens = [] {
    std::vector<std::pair<std::string, FuzzAction>> t = {
        {"client1-crash", {K::kClientCrash, 0, 0, false}},
        {"client1-crash-tear", {K::kClientCrash, 0, 0, true}},
        {"client2-crash", {K::kClientCrash, 0, 1, false}},
        {"client2-crash-tear", {K::kClientCrash, 0, 1, true}},
        {"server-crash", {K::kServerCrash, 0, 0, false}},
        {"server-crash-tear", {K::kServerCrash, 0, 0, true}},
        {"corrupt-image", {K::kCorruptImage, 0, 0, false}},
        {"burst", {K::kBurst, 0, 0, false}},
        {"failover", {K::kFailover, 0, 0, false}},
        {"prefetch", {K::kPrefetch, 0, 0, false}},
    };
    const char* const devices[] = {"client1-", "client2-", "server-"};
    const std::pair<K, const char*> faults[] = {
        {K::kDiskTransient, "disk-err"}, {K::kDiskFull, "disk-full"},
        {K::kDiskFree, "disk-free"},     {K::kDiskRot, "disk-rot"},
        {K::kDiskSyncFail, "disk-syncfail"}};
    for (int target = 0; target < 3; ++target) {
      for (const auto& [kind, suffix] : faults) {
        t.push_back({std::string(devices[target]) + suffix, {kind, 0, target, false}});
      }
    }
    return t;
  }();
  return tokens;
}

std::string KindToken(const FuzzAction& a) {
  for (const auto& [token, proto] : Tokens()) {
    if (proto.kind == a.kind && proto.target == a.target && proto.tear == a.tear) {
      return token;
    }
  }
  return "unknown";
}

bool KindFromToken(const std::string& token, FuzzAction* out) {
  for (const auto& [name, proto] : Tokens()) {
    if (name == token) {
      *out = proto;
      return true;
    }
  }
  return false;
}

// Random up/down connectivity over [0, horizon), permanently up from the
// horizon onwards, so post-fault convergence is always reachable.
std::unique_ptr<IntervalConnectivity> FlappyConnectivity(Rng* rng, Duration mean_up,
                                                         Duration mean_down,
                                                         Duration horizon) {
  std::vector<IntervalConnectivity::Interval> intervals;
  TimePoint t = TimePoint::Epoch();
  const TimePoint end = TimePoint::Epoch() + horizon;
  bool up = true;
  while (t < end) {
    Duration span = Duration::Seconds(
        rng->NextExponential((up ? mean_up : mean_down).seconds()));
    if (span < Duration::Millis(1)) {
      span = Duration::Millis(1);  // guarantee forward progress
    }
    if (up) {
      intervals.push_back({t, std::min(t + span, end)});
    }
    t = t + span;
    up = !up;
  }
  intervals.push_back({end, TimePoint::FromMicros(INT64_MAX)});
  return std::make_unique<IntervalConnectivity>(std::move(intervals));
}

constexpr uint64_t kMaxSeedRange = 1'000'000;

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      !std::all_of(text.begin(), text.end(),
                   [](unsigned char c) { return std::isdigit(c); })) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

}  // namespace

FuzzPlan MakePlan(uint64_t seed, const Corpus& corpus) {
  Rng rng(seed ^ 0x51c7c4ecull);
  FuzzPlan plan;
  plan.corpus = &corpus;
  plan.seed = seed;
  auto add = [&plan](FuzzActionKind kind, uint64_t at_ms, int target = 0,
                     bool tear = false) {
    plan.actions.push_back({kind, at_ms, target, tear});
  };

  // One or two coalescing bursts, each often shadowed by a torn m2 crash a
  // few milliseconds later -- the exact window where an eagerly-withdrawn
  // predecessor record would lose acknowledged work.
  const size_t bursts = corpus.Draws(FuzzActionKind::kBurst) ? 1 + rng.NextBelow(2) : 0;
  for (size_t i = 0; i < bursts; ++i) {
    const uint64_t burst_at = 10'000 + rng.NextBelow(35'000);
    add(FuzzActionKind::kBurst, burst_at);
    if (corpus.Draws(FuzzActionKind::kClientCrash) && rng.NextBool(0.6)) {
      const bool tear = rng.NextBool(0.7);
      add(FuzzActionKind::kClientCrash, burst_at + 1 + rng.NextBelow(120), 1, tear);
    }
  }

  std::vector<FuzzAction> extras;
  for (const FuzzAction& a : {FuzzAction{FuzzActionKind::kClientCrash, 0, 0},
                              FuzzAction{FuzzActionKind::kClientCrash, 0, 1},
                              FuzzAction{FuzzActionKind::kServerCrash},
                              FuzzAction{FuzzActionKind::kCorruptImage}}) {
    if (corpus.Draws(a.kind)) {
      extras.push_back(a);
    }
  }
  const size_t extra_count = extras.empty() ? 0 : 1 + rng.NextBelow(4);
  for (size_t i = 0; i < extra_count; ++i) {
    const uint64_t at_ms = 5'000 + rng.NextBelow(48'000);
    FuzzAction a = extras[rng.NextBelow(extras.size())];
    a.at_ms = at_ms;
    if (a.kind != FuzzActionKind::kCorruptImage) {
      a.tear = rng.NextBool(0.5);
    }
    plan.actions.push_back(a);
  }

  // The storage faults are drawn as one group.
  if (corpus.Draws(FuzzActionKind::kDiskTransient)) {
    const size_t disk_actions = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < disk_actions; ++i) {
      const uint64_t at_ms = 3'000 + rng.NextBelow(50'000);
      const uint64_t roll = rng.NextBelow(6);
      if (roll <= 1) {
        // Forced write-error burst on any device; sized past the retry
        // budget so the terminal-failure path gets exercised too.
        add(FuzzActionKind::kDiskTransient, at_ms, static_cast<int>(rng.NextBelow(3)));
      } else if (roll <= 3) {
        // Bounded ENOSPC episode, always freed again before the horizon's
        // final sweeps (RunPlan also force-frees as a safety net).
        const int target = static_cast<int>(rng.NextBelow(3));
        add(FuzzActionKind::kDiskFull, at_ms, target);
        add(FuzzActionKind::kDiskFree, at_ms + 500 + rng.NextBelow(8'000), target);
      } else if (roll == 4) {
        // Bit rot on a client log only: rotting an already-responded server
        // WAL transaction is DETECTED loss (quarantine + epoch bump), which
        // the harness's acked-loss end-to-end check cannot tell from silent
        // loss. The server path is covered by tests/storage_fault_test.cc.
        add(FuzzActionKind::kDiskRot, at_ms, static_cast<int>(rng.NextBelow(2)));
      } else {
        add(FuzzActionKind::kDiskSyncFail, at_ms, static_cast<int>(rng.NextBelow(3)));
      }
    }
  }

  if (corpus.Draws(FuzzActionKind::kFailover)) {
    // Past 2s the initial resync and the objects' replicated creates are on
    // the backup, and the window still spans the whole workload.
    add(FuzzActionKind::kFailover, 2'000 + rng.NextBelow(40'000));
  }

  if (corpus.Draws(FuzzActionKind::kPrefetch)) {
    const size_t prefetches = 6 + rng.NextBelow(5);
    for (size_t i = 0; i < prefetches; ++i) {
      add(FuzzActionKind::kPrefetch, 2'000 + rng.NextBelow(20'000));
    }
  }

  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const FuzzAction& x, const FuzzAction& y) {
                     return x.at_ms < y.at_ms;
                   });
  return plan;
}

FuzzOutcome RunPlan(const FuzzPlan& plan, FuzzRunOptions options) {
  FuzzOutcome outcome;
  const Corpus& corpus = *plan.corpus;
  auto fail = [&](const std::string& invariant, const std::string& node,
                  const std::string& detail) {
    outcome.violations.push_back({invariant, node, detail});
  };
  for (const FuzzAction& a : plan.actions) {
    if (!corpus.Deploys(a.kind)) {
      outcome.report = "corpus " + std::string(corpus.name) + " cannot run " + KindToken(a);
      fail("harness", "plan", outcome.report);
      return outcome;
    }
  }

  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(5), 2e6,
                                         /*group_commit=*/true};
  topts.server.stable_store.compact_after_records = 8;
  topts.server.rover.invalidation_ttl = Duration::Seconds(30);
  if (corpus.budgets) {
    topts.server.qrpc.max_concurrent_requests = 2;
    topts.server.qrpc.dispatch_cost = Duration::Millis(100);
    topts.server.qrpc.pushback_retry_after = Duration::Millis(200);
  }
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);

  SimCheck check;
  check.Attach(&bed);
  RoverServerNode* backup =
      corpus.backup ? bed.AddBackup("backup", LinkProfile::Ethernet10()) : nullptr;

  bool created = bed.server()->rover()->CreateObject(
                     MakeRdo("journal", "lww", kJournalCode, "")).ok() &&
                 bed.server()->rover()->CreateObject(
                     MakeRdo("doc", "lww", kCounterCode, "0")).ok() &&
                 bed.server()->rover()->CreateObject(
                     MakeRdo("notes", "lww", kCounterCode, "0")).ok();
  auto page = [](int i) { return "page" + std::to_string(i); };
  const int pages = corpus.Draws(FuzzActionKind::kPrefetch) ? kPages : 0;
  for (int i = 0; i < pages; ++i) {
    created = created && bed.server()->rover()->CreateObject(
                             MakeRdo(page(i), "lww", kJournalCode,
                                     std::string(400, 'p'))).ok();
  }
  if (!created) {
    fail("harness", "server", "object creation failed");
    outcome.report = "object creation failed";
    return outcome;
  }

  Rng flaps(plan.seed);
  LinkProfile wave = LinkProfile::WaveLan2();
  wave.duplicate_prob = 0.05;
  wave.reorder_prob = 0.05;
  wave.loss_prob = corpus.link_loss;

  ClientNodeOptions copts;
  copts.access.subscribe_on_import = true;
  if (corpus.backup) {
    copts.qrpc.failover_primary = "server";
    copts.qrpc.failover_backup = "backup";
  }
  if (corpus.budgets) {
    copts.scheduler.max_queued_messages = 16;
    copts.scheduler.max_queued_bytes = 8 << 10;
    copts.scheduler.retry_budget_capacity = 32;
    copts.scheduler.retry_budget_refill_per_sec = 4;
    copts.scheduler.breaker.failure_threshold = 4;
    copts.scheduler.breaker.open_duration = Duration::Millis(500);
    copts.qrpc.max_outstanding_calls = 24;
    copts.qrpc.max_log_bytes = 6 << 10;
    copts.access.degraded_queue_depth = 6;
  }
  auto add_client = [&](const std::string& name, ClientNodeOptions node_opts,
                        Duration mean_up, Duration mean_down) {
    RoverClientNode* node = bed.AddClient(
        name, wave,
        FlappyConnectivity(&flaps, mean_up, mean_down, Duration::Millis(kHorizonMs)),
        node_opts);
    if (backup != nullptr) {
      bed.AddLink(name, "backup", wave);
    }
    return node;
  };
  RoverClientNode* m1 = add_client("m1", copts, Duration::Seconds(8), Duration::Seconds(4));
  ClientNodeOptions c2opts = copts;
  c2opts.qrpc.unsafe_eager_coalesce_withdraw_for_test = options.eager_coalesce_bug;
  c2opts.qrpc.unsafe_ack_despite_flush_failure_for_test =
      options.ack_after_failed_flush_bug;
  RoverClientNode* m2 = add_client("m2", c2opts, Duration::Seconds(7), Duration::Seconds(5));
  const std::vector<RoverClientNode*> clients = {m1, m2};

  EventLoop* loop = bed.loop();
  auto at = [](uint64_t ms) { return TimePoint::Epoch() + Duration::Millis(ms); };

  // --- fixed workload ---
  // m1: journaled server-side invokes (at-most-once tokens).
  loop->ScheduleAt(at(1'000), [m1] { m1->access()->Import("journal"); });
  std::vector<Promise<InvokeResult>> token_results(corpus.tokens);
  for (int i = 0; i < corpus.tokens; ++i) {
    loop->ScheduleAt(at(2'000 + corpus.token_gap_ms * i),
                     [&token_results, m1, i] {
                       InvokeOptions io;
                       io.force_site = ExecutionSite::kServer;
                       token_results[i] = m1->access()->Invoke(
                           "journal", "add", {"tok" + std::to_string(i)}, io);
                     });
  }
  // m2: session-tracked imports (delta / kNotModified traffic via
  // subscribe_on_import invalidations and repeated refetches) plus steady
  // tentative-export pressure on "doc".
  Session session(1);
  for (int i = 0; i < 8; ++i) {
    loop->ScheduleAt(at(1'500 + 7'000 * i), [m2, &session, i] {
      ImportOptions io;
      io.session = &session;
      io.allow_cached = (i % 2) == 0;
      m2->access()->Import("doc", io);
      m2->access()->Import("notes", io);
    });
  }
  auto invoke_and_export = [m2] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kClient;
    auto inv = m2->access()->Invoke("doc", "add", {"1"}, io);
    inv.OnReady([m2](const InvokeResult& r) {
      if (r.status.ok()) {
        m2->access()->Export("doc");
      }
    });
  };
  for (int i = 0; i < 10; ++i) {
    loop->ScheduleAt(at(4'000 + 5'000 * i), invoke_and_export);
  }

  // --- plan actions ---
  // Disk-fault actions address the device behind a node's stable log; the
  // log models hardware and survives simulated crash-restarts, so the
  // pointer stays valid for the whole run.
  auto disk_log = [m1, m2, &bed](int target) -> StableLog* {
    if (target == 0) {
      return m1->log();
    }
    if (target == 1) {
      return m2->log();
    }
    return bed.server()->stable_store()->wal();
  };
  size_t executed = 0;
  size_t server_crashes = 0;
  bool failed_over = false;
  for (const FuzzAction& a : plan.actions) {
    std::function<void()> run;
    switch (a.kind) {
      case FuzzActionKind::kClientCrash: {
        RoverClientNode* victim = a.target == 0 ? m1 : m2;
        run = [victim, a] { victim->SimulateCrashAndRestart(a.tear); };
        break;
      }
      case FuzzActionKind::kServerCrash:
        run = [&bed, &server_crashes, a] {
          bed.server()->SimulateCrashAndRestart(a.tear);
          ++server_crashes;
        };
        break;
      case FuzzActionKind::kCorruptImage:
        run = [m2] { m2->access()->CorruptImportImageForTest("doc"); };
        break;
      case FuzzActionKind::kBurst:
        // Three invoke+export generations 50ms apart: each export's flush
        // is acknowledged before the next supersedes it in the queue, so a
        // disconnected window turns the run into a coalescing chain.
        for (int k = 1; k < 3; ++k) {
          loop->ScheduleAt(at(a.at_ms + 50 * k), invoke_and_export);
        }
        run = invoke_and_export;
        break;
      case FuzzActionKind::kDiskTransient:
        // Six forced errors: past the retry budget (1 + 4 retries), so the
        // flush terminally fails and the refusal/resolution path runs.
        run = [disk_log, a] { disk_log(a.target)->device()->InjectTransientWriteErrors(6); };
        break;
      case FuzzActionKind::kDiskFull:
        run = [disk_log, a] { disk_log(a.target)->device()->ClampCapacityToUsed(160); };
        break;
      case FuzzActionKind::kDiskFree:
        run = [disk_log, a] { disk_log(a.target)->device()->SetCapacityBytes(0); };
        break;
      case FuzzActionKind::kDiskRot:
        run = [disk_log, a] { disk_log(a.target)->InjectBitRot(/*selector=*/a.at_ms); };
        break;
      case FuzzActionKind::kDiskSyncFail:
        run = [disk_log, a] { disk_log(a.target)->device()->FailSyncPermanently(); };
        break;
      case FuzzActionKind::kFailover:
        // Kill the primary for good -- mid-WAL-flush, mid-coalesce, whatever
        // the simulation is doing -- and promote the backup one detection
        // delay later; the action counts as executed once promoted.
        loop->ScheduleAt(at(a.at_ms), [&bed] { bed.server()->Kill(); });
        loop->ScheduleAt(at(a.at_ms) + kDetectionDelay,
                         [backup, clients, &executed, &failed_over] {
                           backup->Promote();
                           for (RoverClientNode* node : clients) {
                             node->qrpc()->TriggerFailover();
                           }
                           failed_over = true;
                           ++executed;
                         });
        continue;
      case FuzzActionKind::kPrefetch: {
        const int first = static_cast<int>(a.at_ms % kPages);
        run = [m1, page, first] {
          m1->access()->Prefetch({page(first), page((first + 1) % kPages),
                                  page((first + 2) % kPages)});
        };
        break;
      }
    }
    loop->ScheduleAt(at(a.at_ms), [run, &executed] {
      run();
      ++executed;
    });
  }

  // The fault window ends at the horizon: every device is healed (leftover
  // injected transient errors cleared, capacity clamp lifted) before the
  // final sweeps. Without this, a burst injected after a client's last
  // workload call would sit unconsumed and fail the harness's own
  // convergence imports -- a scheduling artifact, not a protocol bug.
  loop->ScheduleAt(at(kHorizonMs + 500), [disk_log] {
    for (int target = 0; target < 3; ++target) {
      disk_log(target)->device()->Repair();
      disk_log(target)->device()->SetCapacityBytes(0);
    }
  });

  // Final sweeps once the links are permanently up: each client restart
  // re-sends every durable unanswered request, so the run always quiesces
  // with drained logs -- and the recovery audit runs one last time.
  loop->ScheduleAt(at(kHorizonMs + 1'000), [m1] { m1->SimulateCrashAndRestart(false); });
  loop->ScheduleAt(at(kHorizonMs + 2'000), [m2] { m2->SimulateCrashAndRestart(false); });

  // Under budgets, sample each client's log and queue bytes every 250ms
  // until the final sweeps: memory must stay bounded under overload.
  std::vector<size_t> peak_log(clients.size()), peak_queue(clients.size());
  std::function<void()> sample = [&] {
    for (size_t i = 0; i < clients.size(); ++i) {
      peak_log[i] = std::max(peak_log[i], clients[i]->log()->TotalBytes());
      peak_queue[i] = std::max(
          peak_queue[i], clients[i]->transport()->scheduler()->QueuedPayloadBytes());
    }
    if (loop->now() < at(kHorizonMs + 2'000)) {
      loop->ScheduleAfter(Duration::Millis(250), sample);
    }
  };
  if (corpus.budgets) {
    loop->ScheduleAt(at(1'000), sample);
  }

  bed.Run();

  // --- harness-level end-to-end checks, on the node serving at the end ---
  RoverServerNode* serving = failed_over ? backup : bed.server();
  const std::string where = serving->host_name();
  if (executed != plan.actions.size()) {
    fail("action-executed", "harness",
         std::to_string(executed) + " of " + std::to_string(plan.actions.size()) +
             " scheduled actions ran");
  }
  if (failed_over) {
    if (!bed.server()->dead()) {
      fail("action-executed", "server", "failover left the primary alive");
    }
    for (RoverClientNode* node : clients) {
      if (!node->qrpc()->failover_engaged()) {
        fail("action-executed", node->host_name(), "failover route not engaged");
      }
    }
  } else {
    // Every epoch bump is one recovery: planned crashes plus storage
    // fail-stops (terminal journal-flush failures force a crash-restart).
    // Across a failover SimCheck's fencing audit owns the epoch instead.
    const uint64_t expected = 1 + server_crashes + serving->storage_fail_stops();
    if (serving->stable_store()->epoch() != expected) {
      fail("epoch-accounting", where,
           "epoch " + std::to_string(serving->stable_store()->epoch()) + ", expected " +
               std::to_string(expected));
    }
  }

  auto journal = serving->store()->Get("journal");
  const std::string server_journal = journal.ok() ? journal->data : "";
  auto tokens = TclListSplit(server_journal);
  if (!journal.ok() || !tokens.ok()) {
    fail("harness", where, "journal missing or unparsable: [" + server_journal + "]");
  } else {
    std::set<std::string> unique(tokens->begin(), tokens->end());
    if (unique.size() != tokens->size()) {
      fail("at-most-once-token", where,
           "a journal add executed twice: [" + server_journal + "]");
    }
    std::set<std::string> issued;
    for (int i = 0; i < corpus.tokens; ++i) {
      issued.insert("tok" + std::to_string(i));
    }
    for (const std::string& tok : *tokens) {
      if (issued.count(tok) == 0) {
        fail("phantom-token", where, "unknown token " + tok);
      }
    }
    for (int i = 0; i < corpus.tokens; ++i) {
      const std::string tok = "tok" + std::to_string(i);
      if (!token_results[i].ready()) {
        continue;  // promise died with a client crash; at-most-once covers it
      }
      const Status& st = token_results[i].value().status;
      if (st.ok() && unique.count(tok) == 0) {
        fail("acked-loss", where,
             "acknowledged " + tok + " missing: [" + server_journal + "]");
      }
      // An explicit admission refusal: never executed, and never the
      // silent-shed message reserved for background work.
      if (st.code() == StatusCode::kResourceExhausted) {
        if (st.message().find("shed") != std::string::npos) {
          fail("durable-shed", "m1", tok + " shed: " + st.message());
        }
        if (unique.count(tok) != 0) {
          fail("refused-executed", where, "refused " + tok + " executed anyway");
        }
      }
    }
  }

  const double elapsed_s = (loop->now() - TimePoint::Epoch()).seconds();
  uint64_t pressure = serving->qrpc()->stats().requests_rejected;
  for (size_t i = 0; i < clients.size(); ++i) {
    RoverClientNode* node = clients[i];
    if (node->qrpc()->LogDepth() != 0) {
      fail("log-drain", node->host_name(),
           "stable log did not drain: depth " +
               std::to_string(node->qrpc()->LogDepth()));
    }
    if (node->qrpc()->PendingCount() != 0) {
      fail("log-drain", node->host_name(),
           "pending set did not drain: " +
               std::to_string(node->qrpc()->PendingCount()));
    }
    if (node->access()->Degraded()) {
      fail("degraded-at-end", node->host_name(), "still degraded after draining");
    }
    if (copts.qrpc.max_log_bytes > 0 && peak_log[i] > copts.qrpc.max_log_bytes) {
      fail("log-budget", node->host_name(),
           "log peaked at " + std::to_string(peak_log[i]) + " bytes");
    }
    if (copts.scheduler.max_queued_bytes > 0 &&
        peak_queue[i] > copts.scheduler.max_queued_bytes) {
      fail("queue-budget", node->host_name(),
           "queue peaked at " + std::to_string(peak_queue[i]) + " bytes");
    }
    // Loss retries stay within the token budget: burst capacity plus the
    // refill over the whole run, with slack for link-down requeues (counted
    // as retries but exempt from the budget -- reconnection, not loss).
    const SchedulerStats sched = node->transport()->scheduler()->stats();
    if (copts.scheduler.retry_budget_capacity > 0 &&
        sched.retries > copts.scheduler.retry_budget_capacity +
                            copts.scheduler.retry_budget_refill_per_sec * elapsed_s + 40) {
      fail("retry-budget", node->host_name(),
           std::to_string(sched.retries) + " retries in " + std::to_string(elapsed_s) + "s");
    }
    const QrpcClientStats qstats = node->qrpc()->stats();
    const AccessManagerStats astats = node->access()->stats();
    pressure += sched.messages_shed + sched.enqueue_rejected + qstats.admission_rejected +
                qstats.background_shed + astats.prefetches_shed + astats.degraded_entered;
  }
  if (corpus.budgets && pressure == 0) {
    fail("overload-pressure", "harness", "the budgets never engaged");
  }

  // Convergence: a fresh uncached import must land every client on the
  // serving node's committed state, at its current epoch.
  for (RoverClientNode* node : clients) {
    for (const char* name : {"journal", "doc"}) {
      ImportOptions io;
      io.allow_cached = false;
      auto converge = node->access()->Import(name, io);
      if (!converge.Wait(loop) || !converge.value().status.ok()) {
        fail("convergence", node->host_name(),
             std::string("final import of ") + name + " failed");
        continue;
      }
      auto local = node->access()->ReadCommittedData(name);
      auto served = serving->store()->Get(name);
      const std::string server_data = served.ok() ? served->data : "<missing>";
      if (!local.ok() || *local != server_data) {
        fail("convergence", node->host_name(),
             std::string(name) + " diverged: client [" +
                 (local.ok() ? *local : "<unreadable>") + "] server [" +
                 server_data + "]");
      }
    }
    if (node->qrpc()->LastSeenEpoch(where) != serving->stable_store()->epoch()) {
      fail("epoch-accounting", node->host_name(),
           "last saw " + where + " epoch " +
               std::to_string(node->qrpc()->LastSeenEpoch(where)) + ", serving epoch " +
               std::to_string(serving->stable_store()->epoch()));
    }
  }
  // Wait() stops the loop the instant the promise resolves; a duplicated or
  // retransmitted frame can still be in flight. Drain before the audit.
  bed.Run();

  check.CheckQuiesced();
  outcome.violations.insert(outcome.violations.end(), check.violations().begin(),
                            check.violations().end());
  outcome.ok = outcome.violations.empty();
  if (!outcome.ok) {
    std::ostringstream report;
    report << "plan failed: " << FormatRepro(plan) << "\n";
    for (const auto& v : outcome.violations) {
      report << "  [" << v.invariant << "] " << v.node << ": " << v.detail << "\n";
    }
    report << "event trace (tail):\n" << check.TraceTail(100);
    outcome.report = report.str();
  }
  return outcome;
}

FuzzPlan ShrinkPlan(const FuzzPlan& plan, FuzzRunOptions options) {
  FuzzPlan current = plan;
  bool shrunk = true;
  while (shrunk && current.actions.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < current.actions.size(); ++i) {
      FuzzPlan candidate = current;
      candidate.actions.erase(candidate.actions.begin() + i);
      if (!RunPlan(candidate, options).ok) {
        current = candidate;
        shrunk = true;
        break;  // restart the scan over the smaller plan
      }
    }
  }
  return current;
}

std::string FormatRepro(const FuzzPlan& plan) {
  std::ostringstream out;
  out << "SIMCHECK_REPRO corpus=" << plan.corpus->name << " seed=" << plan.seed
      << " plan=";
  for (size_t i = 0; i < plan.actions.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << KindToken(plan.actions[i]) << "@" << plan.actions[i].at_ms;
  }
  return out.str();
}

Result<FuzzPlan> ParseRepro(const std::string& line) {
  const std::string marker = "SIMCHECK_REPRO";
  const size_t start = line.find(marker);
  if (start == std::string::npos) {
    return InvalidArgumentError("repro line missing " + marker);
  }
  std::istringstream words(line.substr(start + marker.size()));
  std::string word;
  FuzzPlan plan;
  bool have_seed = false;
  bool have_plan = false;
  while (words >> word) {
    const size_t eq = word.find('=');
    const std::string key = word.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : word.substr(eq + 1);
    if (key == "corpus") {
      plan.corpus = FindCorpus(value);
      if (plan.corpus == nullptr) {
        return InvalidArgumentError("unknown corpus: " + value);
      }
    } else if (key == "seed") {
      if (!ParseU64(value, &plan.seed)) {
        return InvalidArgumentError("unparsable seed: " + value);
      }
      have_seed = true;
    } else if (key == "plan") {
      std::istringstream stream(value);
      std::string item;
      while (std::getline(stream, item, ',')) {
        const size_t atpos = item.find('@');
        if (atpos == std::string::npos) {
          return InvalidArgumentError("action missing @time: " + item);
        }
        FuzzAction action;
        if (!KindFromToken(item.substr(0, atpos), &action)) {
          return InvalidArgumentError("unknown action kind: " + item);
        }
        if (!ParseU64(item.substr(atpos + 1), &action.at_ms)) {
          return InvalidArgumentError("unparsable action time: " + item);
        }
        plan.actions.push_back(action);
      }
      have_plan = true;
    } else {
      return InvalidArgumentError("unexpected repro word: " + word);
    }
  }
  if (!have_seed || !have_plan) {
    return InvalidArgumentError("repro line missing seed= or plan=");
  }
  if (plan.actions.empty()) {
    return InvalidArgumentError("empty plan");
  }
  for (const FuzzAction& a : plan.actions) {
    if (!plan.corpus->Deploys(a.kind)) {
      return InvalidArgumentError("corpus " + std::string(plan.corpus->name) +
                                  " cannot run " + KindToken(a));
    }
  }
  return plan;
}

Result<std::vector<uint64_t>> ParseSeedSpec(const std::string& spec) {
  std::vector<uint64_t> seeds;
  std::istringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const size_t dash = item.find('-');
    uint64_t lo = 0;
    uint64_t hi = 0;
    const bool parsed = dash == std::string::npos
                            ? ParseU64(item, &lo) && ParseU64(item, &hi)
                            : ParseU64(item.substr(0, dash), &lo) &&
                                  ParseU64(item.substr(dash + 1), &hi);
    if (!parsed) {
      return InvalidArgumentError("malformed seed spec item '" + item + "' in '" +
                                  spec + "'");
    }
    if (lo > hi) {
      return InvalidArgumentError("reversed seed range '" + item + "'");
    }
    if (hi - lo >= kMaxSeedRange) {
      return InvalidArgumentError("seed range '" + item + "' too wide");
    }
    for (uint64_t s = lo; s <= hi; ++s) {
      seeds.push_back(s);
    }
  }
  if (seeds.empty() || spec.back() == ',') {
    return InvalidArgumentError("empty seed spec '" + spec + "'");
  }
  return seeds;
}

Result<FuzzCommand> ParseFuzzCommand(const std::vector<std::string>& args) {
  FuzzCommand command;
  bool have_corpus = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--eager-bug") {
      // Re-introduce the known coalescing bug (checker self-test).
      command.run.eager_coalesce_bug = true;
    } else if (arg == "--corpus" || arg == "--repro") {
      if (i + 1 == args.size()) {
        return InvalidArgumentError(arg + " needs a value");
      }
      const std::string& value = args[++i];
      if (arg == "--repro") {
        if (value.empty()) {
          return InvalidArgumentError("empty repro line");
        }
        command.repro = value;
        continue;
      }
      command.corpus = FindCorpus(value);
      if (command.corpus == nullptr) {
        return InvalidArgumentError("unknown corpus: " + value);
      }
      have_corpus = true;
    } else if (arg.rfind("--", 0) == 0) {
      return InvalidArgumentError("unknown flag: " + arg);
    } else {
      ROVER_ASSIGN_OR_RETURN(std::vector<uint64_t> seeds, ParseSeedSpec(arg));
      command.seeds.insert(command.seeds.end(), seeds.begin(), seeds.end());
    }
  }
  if (!command.repro.empty()) {
    if (have_corpus || !command.seeds.empty()) {
      return InvalidArgumentError(
          "--repro takes no seed specs or --corpus: the line names its corpus");
    }
    return command;
  }
  if (command.seeds.empty()) {
    for (uint64_t s = 1; s <= 24; ++s) {
      command.seeds.push_back(s);
    }
  }
  return command;
}

}  // namespace check
}  // namespace rover
