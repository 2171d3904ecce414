// Rover benchmark program. One process runs one workload (fanin, apps or
// roaming) from inputs generated out of --seed, repeats it in rounds for
// --seconds of wall time, checks every round's outputs, and prints either
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// as the last line of stdout. See perfbench/README.md for the workloads,
// the metric definitions and the layer -> end-to-end mapping.
//
// Traffic crosses simulated links (src/sim), so simulated-time latencies
// are model outputs: they repeat exactly for a given seed, and every round
// of a run must reproduce them bit for bit. Host CPU, set-up time and RSS
// are real measurements of the host the benchmark runs on.
//
// All timing of toolkit calls lives in this file, around public entry
// points (Testbed::AddClient, QrpcClient::Call, AccessManager::Import/
// Invoke/Export, MailReader, CalendarApp, EventLoop::Run); nothing inside
// src/ is instrumented for the benchmark.

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/calendar.h"
#include "src/apps/mail.h"
#include "src/apps/workload.h"
#include "src/check/simcheck.h"
#include "src/core/toolkit.h"
#include "src/obs/cpu_scope.h"
#include "src/tclite/value.h"
#include "src/util/buffer.h"

#ifndef ROVER_BENCH_BUILD_TYPE
#define ROVER_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ROVER_BENCH_CXX
#define ROVER_BENCH_CXX "unknown"
#endif

using namespace rover;

namespace {

// ---------------------------------------------------------------------------
// Host measurements.

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident memory since the process started or since the last
// ResetPeakRss() took effect.
double PeakRssMib() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtol(line + 6, nullptr, 10);
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// Lowers the peak-resident mark to the current resident size. Where the
// operating system refuses, the peak keeps counting the reference kernel's
// memory.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host reference kernel. A shared host's speed moves in phases that last
// minutes (other tenants on the same caches and cores), by up to 2x, so a
// raw host time compares two commits only if both ran in the same phase.
// This fixed kernel does the kinds of work the toolkit does -- heap churn of
// payload-sized buffers, hash-map probes, a binary heap of timers and
// random accesses across a working set far larger than L2 -- and never calls
// into src/, so no change to the toolkit moves it. It runs before every
// round and after the last, and each round's host time is multiplied by
// kRefKernelS / (the kernel's time around that round): host times are
// reported as if measured on a host where the kernel takes kRefKernelS.
constexpr double kRefKernelS = 0.080;

struct KernelTime {
  double cpu_s = 0;
  double wall_s = 0;
};

uint64_t RefKernelWork() {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t sum = 0;

  // Random accesses over 16 MiB: a Sattolo shuffle into one cycle, then a
  // short chase along it. The array is mapped and unmapped on every call, so
  // none of it stays resident into the round that follows.
  constexpr uint32_t kSlots = 1u << 22;
  constexpr size_t kBytes = kSlots * sizeof(uint32_t);
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) std::abort();
  uint32_t* next = static_cast<uint32_t*>(mem);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  for (uint32_t i = kSlots - 1; i > 0; --i) std::swap(next[i], next[rnd() % i]);
  uint32_t at = 0;
  for (int i = 0; i < (1 << 14); ++i) at = next[at];
  sum += at;
  munmap(mem, kBytes);

  // Heap churn: payload-sized buffers through a ring, filled and checked.
  std::vector<std::vector<uint8_t>> ring(2048);
  for (int i = 0; i < 90000; ++i) {
    std::vector<uint8_t>& slot = ring[rnd() % ring.size()];
    sum += slot.empty() ? 0 : slot[slot.size() / 2];
    slot.assign(256 + (rnd() % 1792), static_cast<uint8_t>(i));
  }

  // Hash-map probes and updates over a keyed table.
  std::unordered_map<uint64_t, uint64_t> table;
  for (int i = 0; i < 250000; ++i) {
    const uint64_t key = rnd() % 65536;
    auto it = table.find(key);
    if (it == table.end()) {
      table.emplace(key, i);
    } else if ((key & 3) == 0) {
      table.erase(it);
    } else {
      sum += it->second++;
    }
  }

  // Timer heap: a standing queue of 8k events, pop one, push one.
  std::vector<uint64_t> heap;
  for (int i = 0; i < 8192; ++i) heap.push_back(rnd() % 1000000);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (int i = 0; i < 150000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    sum += heap.back();
    heap.back() += 1 + rnd() % 100000;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  return sum;
}

KernelTime RunRefKernel() {
  static uint64_t expected = 0;
  const double cpu0 = CpuSeconds();
  const double wall0 = WallSeconds();
  const uint64_t sum = RefKernelWork();
  KernelTime t{CpuSeconds() - cpu0, WallSeconds() - wall0};
  // The kernel is deterministic; a differing result means it was not run.
  if (expected == 0) expected = sum;
  if (sum != expected) std::abort();
  return t;
}

// Nearest-rank percentile; `sorted` must be ascending and non-empty.
double Percentile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Bench-timed calls (traced rounds only). Each timed call is charged its
// exclusive host time: the CpuScope zone cycles that completed inside it
// are subtracted, so zones plus timed calls never count a cycle twice.
// Nested timed calls (a promise callback that issues another call while an
// outer timed call is still on the stack) are charged to the outer one.

enum class Api { kAddClient, kQrpcCall, kImport, kInvoke, kExport, kMailReader, kCalendarApp, kCount };
constexpr size_t kNumApis = static_cast<size_t>(Api::kCount);
constexpr const char* kApiMetric[kNumApis] = {
    "setup.add_client_us", "qrpc.call_cpu_us",  "cache.import_cpu_us",  "cache.invoke_cpu_us",
    "cache.export_cpu_us", "apps.mail_cpu_us", "apps.calendar_cpu_us"};
constexpr size_t kNumZones = static_cast<size_t>(obs::CpuZone::kCount);

uint64_t ZoneCyclesNow() {
  const auto& attr = obs::CpuAttribution::Instance();
  uint64_t sum = 0;
  for (size_t z = 0; z < kNumZones; ++z) sum += attr.totals(static_cast<obs::CpuZone>(z)).cycles;
  return sum;
}

struct ApiTotals {
  double seconds[kNumApis] = {};
  uint64_t calls[kNumApis] = {};
};

class ApiTimer {
 public:
  static ApiTimer& Get() {
    static ApiTimer timer;
    return timer;
  }
  void Start(bool enabled) {
    enabled_ = enabled;
    depth_ = 0;
    totals_ = ApiTotals();
  }
  const ApiTotals& totals() const { return totals_; }

 private:
  friend class Timed;
  bool enabled_ = false;
  int depth_ = 0;
  ApiTotals totals_;
};

class Timed {
 public:
  explicit Timed(Api api) : api_(api) {
    ApiTimer& t = ApiTimer::Get();
    if (!t.enabled_) return;
    counted_ = true;
    if (t.depth_++ > 0) return;
    outermost_ = true;
    zone_cycles_ = ZoneCyclesNow();
    start_ = WallSeconds();
  }
  ~Timed() {
    if (!counted_) return;
    ApiTimer& t = ApiTimer::Get();
    --t.depth_;
    if (!outermost_) return;
    const double wall = WallSeconds() - start_;
    const double zones = static_cast<double>(ZoneCyclesNow() - zone_cycles_) /
                         obs::CpuAttribution::Instance().CyclesPerSecond();
    const size_t i = static_cast<size_t>(api_);
    t.totals_.seconds[i] += std::max(0.0, wall - zones);
    ++t.totals_.calls[i];
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Api api_;
  bool counted_ = false;
  bool outermost_ = false;
  uint64_t zone_cycles_ = 0;
  double start_ = 0;
};

// ---------------------------------------------------------------------------
// Execution counting: at-most-once is checked by counting every dispatch
// per (client, rpc id) at the primary server. Works as a plain listener or
// layered over SimCheck (self-test), which then also sees every hook.

class ExecCounts {
 public:
  void Note(const std::string& client, uint64_t rpc_id) {
    if (++counts_[client][rpc_id] > 1) ++reexecuted_;
  }
  uint64_t reexecuted() const { return reexecuted_; }
  uint64_t evictions = 0;

 private:
  std::unordered_map<std::string, std::unordered_map<uint64_t, uint32_t>> counts_;
  uint64_t reexecuted_ = 0;
};

template <class Base>
class Counting : public Base {
 public:
  Counting(ExecCounts* counts, std::string primary)
      : counts_(counts), primary_(std::move(primary)) {}
  void OnServerExecute(const std::string& server, const std::string& client,
                       uint64_t rpc_id) override {
    Base::OnServerExecute(server, client, rpc_id);
    if (server == primary_) counts_->Note(client, rpc_id);
  }
  void OnServerDupCacheEvict(const std::string& server, const std::string& client,
                             uint64_t rpc_id) override {
    Base::OnServerDupCacheEvict(server, client, rpc_id);
    if (server == primary_) ++counts_->evictions;
  }

 private:
  ExecCounts* counts_;
  std::string primary_;
};

// ---------------------------------------------------------------------------
// Operation ledger. Every user-level operation is one entry; simulated
// times are recorded from the loop clock. Latency is measured from the
// operation's scheduled issue time (`due`), which in the simulator is also
// the time it was issued: simulated events fire exactly on schedule.

struct Op {
  TimePoint due;
  bool write = false;
  bool durable = false;   // committed promise resolved (logged writes)
  bool resolved = false;
  bool ok = false;
  int64_t commit_us = -1;
  int64_t done_us = -1;
  uint32_t client = 0;
  uint64_t rpc_id = 0;    // 0 when the operation's rpc is not known
};

struct RoundResult {
  double setup_s = 0;
  double cpu_s = 0;
  double run_cpu_s = 0;
  KernelTime ref;  // the reference kernel's mean time before and after the round
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness violations
  std::vector<double> call_return_ms, completion_ms, read_ms;
  uint64_t wire_bytes = 0;
  uint64_t copy_bytes = 0;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a over simulated outputs
  std::map<std::string, double> layer;

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
  void Error(std::string e) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
};

// ---------------------------------------------------------------------------
// Workload base: owns the deployment for one round.

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds servers, clients, links and seeded objects (timed as set-up).
  virtual void Setup() = 0;
  // Schedules the load; the caller then runs the loop to quiescence.
  virtual void Schedule() = 0;
  // Workload-specific correctness checks after quiescence.
  virtual void CheckFinal(RoundResult* r) = 0;

  Testbed* bed() { return bed_.get(); }
  std::vector<Op>& ops() { return ops_; }
  std::vector<RoverClientNode*>& clients() { return clients_; }
  uint64_t queue_depth_max() const { return queue_depth_max_; }
  void set_traced(bool traced) { traced_ = traced; }

  uint64_t mismatches_ = 0;       // results that differ from their inputs
  uint64_t bad_resolutions_ = 0;  // operations resolved more than once

 protected:
  TimePoint Now() { return bed_->loop()->now(); }
  size_t AddOp(uint32_t client, bool write) {
    Op op;
    op.due = Now();
    op.write = write;
    op.client = client;
    ops_.push_back(op);
    return ops_.size() - 1;
  }
  void Commit(size_t i) {
    ops_[i].durable = true;
    ops_[i].commit_us = Now().micros();
  }
  void Finish(size_t i, bool ok) {
    Op& op = ops_[i];
    if (op.resolved) {
      bad_resolutions_++;
      return;
    }
    op.resolved = true;
    op.ok = ok;
    op.done_us = Now().micros();
  }
  void SampleQueue(RoverClientNode* node) {
    if (traced_) {
      queue_depth_max_ = std::max<uint64_t>(queue_depth_max_,
                                            node->transport()->scheduler()->TotalQueueDepth());
    }
  }
  RoverClientNode* AddClient(const std::string& name, LinkProfile profile,
                             std::unique_ptr<ConnectivitySchedule> schedule = nullptr,
                             ClientNodeOptions options = {}) {
    Timed t(Api::kAddClient);
    return bed_->AddClient(name, std::move(profile), std::move(schedule), std::move(options));
  }

  std::unique_ptr<Testbed> bed_ = std::make_unique<Testbed>();
  std::vector<RoverClientNode*> clients_;
  std::vector<Op> ops_;
  bool traced_ = false;
  uint64_t queue_depth_max_ = 0;
};

// Echo handler used by fanin and roaming: the result is the first argument.
void RegisterEcho(QrpcServer* server) {
  server->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        if (!req.args.empty()) body.result = req.args[0];
        respond(body);
      });
}

// Payload "<tag><client>.<seq>:" followed by seeded filler up to `size`.
std::string MakePayload(char tag, uint32_t client, uint32_t seq, size_t size, Rng* rng) {
  std::string s = std::string(1, tag) + std::to_string(client) + "." + std::to_string(seq) + ":";
  const char fill = static_cast<char>('a' + rng->NextBelow(26));
  s.resize(std::max(size, s.size()), fill);
  return s;
}

bool ParsePayload(const std::string& s, char* tag, uint32_t* client, uint32_t* seq) {
  unsigned c = 0, q = 0;
  char t = 0;
  if (std::sscanf(s.c_str(), "%c%u.%u:", &t, &c, &q) != 3) return false;
  *tag = t;
  *client = c;
  *seq = q;
  return true;
}

// ---------------------------------------------------------------------------
// fanin: open loop. Thousands of WaveLAN clients fire seeded bursts of
// logged echo QRPCs (~256 B, every 8th ~2 KiB) into a durable server with a
// semi-sync warm backup; one op in eight is an unlogged echo read (the
// paper's E2 baseline), so read latency has samples on this workload too.

struct FaninInputs {
  uint32_t clients = 0;
  struct Burst {
    uint32_t client = 0;
    int64_t due_us = 0;
    std::vector<uint32_t> ops;  // indices into args / is_read
  };
  std::vector<Burst> bursts;
  std::vector<std::string> args;
  std::vector<bool> is_read;
};

FaninInputs GenerateFanin(uint64_t seed, bool small) {
  FaninInputs in;
  in.clients = small ? 64 : 3000;
  // The seed moves every burst in time; the op mix is fixed (every 8th op a
  // ~2 KiB write, every 8th an unlogged read), so seeds differ only in how
  // the load interleaves, not in how much of each kind there is.
  constexpr int kBursts = 3;
  constexpr int kOpsPerBurst = 2;
  constexpr int64_t kWindowUs = 24'000'000;  // offered load well below server capacity
  Rng rng(seed ^ 0xfa17'0001ull);
  uint32_t g = 0;
  for (uint32_t c = 0; c < in.clients; ++c) {
    uint32_t seq = 0;
    for (int b = 0; b < kBursts; ++b) {
      FaninInputs::Burst burst;
      burst.client = c;
      burst.due_us = static_cast<int64_t>(rng.NextBelow(kWindowUs));
      for (int k = 0; k < kOpsPerBurst; ++k, ++seq, ++g) {
        const bool read = g % 8 == 3;
        const size_t size = g % 8 == 7 ? 1792 + rng.NextBelow(513) : 192 + rng.NextBelow(129);
        burst.ops.push_back(static_cast<uint32_t>(in.args.size()));
        in.args.push_back(MakePayload(read ? 'r' : 'w', c, seq, size, &rng));
        in.is_read.push_back(read);
      }
      in.bursts.push_back(std::move(burst));
    }
  }
  return in;
}

class Fanin : public Workload {
 public:
  explicit Fanin(const FaninInputs* in) : in_(in) {}

  void Setup() override {
    RegisterEcho(bed_->server()->qrpc());
    bed_->AddBackup("backup", LinkProfile::Ethernet10());
    clients_.reserve(in_->clients);
    for (uint32_t c = 0; c < in_->clients; ++c) {
      clients_.push_back(AddClient("m" + std::to_string(c), LinkProfile::WaveLan2()));
    }
    ops_.reserve(in_->args.size());
  }

  void Schedule() override {
    for (const auto& burst : in_->bursts) {
      bed_->loop()->ScheduleAt(TimePoint::Epoch() + Duration::Micros(burst.due_us),
                               [this, &burst] {
                                 for (uint32_t a : burst.ops) Issue(burst.client, a);
                               });
    }
  }

  void CheckFinal(RoundResult* r) override {}

 private:
  void Issue(uint32_t client, uint32_t a) {
    const bool read = in_->is_read[a];
    const size_t i = AddOp(client, !read);
    RoverClientNode* node = clients_[client];
    QrpcCallOptions options;
    options.log_request = !read;
    QrpcCall call;
    {
      Timed t(Api::kQrpcCall);
      call = node->qrpc()->Call("server", "echo", {in_->args[a]}, options);
    }
    ops_[i].rpc_id = call.rpc_id;
    SampleQueue(node);
    if (!read) call.committed.OnReady([this, i](const TimePoint&) { Commit(i); });
    call.result.OnReady([this, i, a](const QrpcResult& res) {
      bool ok = res.status.ok();
      if (ok) {
        auto v = RpcValueAsString(res.value);
        if (!v.ok() || *v != in_->args[a]) {
          ok = false;
          mismatches_++;
        }
      }
      Finish(i, ok);
    });
  }

  const FaninInputs* in_;
};

// ---------------------------------------------------------------------------
// roaming: open loop on intermittent CSLIP 14.4 links (seeded up/down
// periods over a ten-minute window, up for good afterwards so the
// deployment drains); a third of the clients also get a periodic WaveLAN
// window. Clients keep issuing logged echo writes while down; a quarter of
// them carry a supersede key (a full-state "position" update), so queued
// predecessors coalesce. Reads import shared objects through a small cache.
// The link model resumes a frame across a disconnect instead of losing it,
// so the dial-up line is made noisy (packet loss and duplicate delivery):
// lost frames force resends, and duplicated requests reach the dup cache.

constexpr int kRoamObjects = 512;
constexpr char kTileCode[] =
    "proc features {} { global state; set n 0; foreach f $state { incr n }; return $n }";

struct RoamingInputs {
  uint32_t clients = 0;
  struct Client {
    std::vector<IntervalConnectivity::Interval> cslip_up;
    bool wavelan = false;
    int64_t wavelan_phase_us = 0;
  };
  std::vector<Client> per_client;
  struct Item {
    int64_t due_us = 0;
    uint32_t client = 0;
    bool read = false;
    bool supersede = false;
    uint32_t object = 0;  // reads
    std::string arg;      // writes
  };
  std::vector<Item> items;
  std::vector<std::string> tiles;
  std::vector<int> tile_features;  // words in each tile (the `features` result)
};

RoamingInputs GenerateRoaming(uint64_t seed, bool small) {
  RoamingInputs in;
  in.clients = small ? 40 : 800;
  constexpr double kWindowS = 600;
  constexpr int kWrites = 40;  // per client, at seeded times in the window
  constexpr int kReads = 20;
  Rng rng(seed ^ 0x70a3'0002ull);
  ZipfSampler zipf(kRoamObjects, 0.9, seed ^ 0x70a3'0003ull);
  for (int j = 0; j < kRoamObjects; ++j) {
    const int features = 16 + static_cast<int>(rng.NextBelow(49));
    std::string state;
    for (int f = 0; f < features; ++f) {
      state += (f ? " f" : "f") + std::to_string(j) + "-" + std::to_string(rng.NextBelow(1u << 30));
    }
    in.tiles.push_back(std::move(state));
    in.tile_features.push_back(features);
  }
  auto sorted_times = [&](int n) {
    std::vector<int64_t> t;
    for (int k = 0; k < n; ++k) t.push_back(static_cast<int64_t>(rng.NextDouble() * kWindowS * 1e6));
    std::sort(t.begin(), t.end());
    return t;
  };
  for (uint32_t c = 0; c < in.clients; ++c) {
    RoamingInputs::Client cl;
    bool up = rng.NextBool(0.5);
    double t = 0;
    while (t < kWindowS) {
      // Outages last 20-160 s (a bounded dead zone); coverage periods are
      // exponential with a 45 s mean.
      const double d = up ? rng.NextExponential(45.0) : 20.0 + 140.0 * rng.NextDouble();
      if (up) {
        cl.cslip_up.push_back({TimePoint::Epoch() + Duration::Seconds(t),
                               TimePoint::Epoch() + Duration::Seconds(t + d)});
      }
      t += d;
      up = !up;
    }
    // Up for good once the window closes, so every parked queue drains.
    const TimePoint forever = TimePoint::Epoch() + Duration::Seconds(1e7);
    if (up) {
      cl.cslip_up.push_back({TimePoint::Epoch() + Duration::Seconds(t), forever});
    } else {
      cl.cslip_up.back().end = forever;
    }
    cl.wavelan = c % 3 == 0;
    cl.wavelan_phase_us = static_cast<int64_t>(rng.NextBelow(300'000'000));
    in.per_client.push_back(std::move(cl));

    // Each client has its own typical record size, so the median record,
    // and with it the call-return median, is a property of the sampled
    // population rather than a constant of the workload.
    const size_t record = 120 + rng.NextBelow(281);
    uint32_t seq = 0;
    for (int64_t due : sorted_times(kWrites)) {
      RoamingInputs::Item item;
      item.due_us = due;
      item.client = c;
      item.supersede = seq % 4 == 1;
      const size_t size = seq % 8 == 7 ? 768 + rng.NextBelow(513) : record + rng.NextBelow(33);
      item.arg = MakePayload(item.supersede ? 's' : 'w', c, seq, size, &rng);
      ++seq;
      in.items.push_back(std::move(item));
    }
    // Reads mostly revisit a per-client home set of tiles (cache hits once
    // imported), sometimes any tile by popularity.
    uint32_t home[3];
    for (uint32_t& h : home) h = static_cast<uint32_t>(rng.NextBelow(kRoamObjects));
    for (int64_t due : sorted_times(kReads)) {
      RoamingInputs::Item item;
      item.due_us = due;
      item.client = c;
      item.read = true;
      item.object = rng.NextBool(0.9) ? home[rng.NextBelow(3)] : static_cast<uint32_t>(zipf.Next());
      in.items.push_back(std::move(item));
    }
  }
  return in;
}

LinkProfile NoisyCslip() {
  LinkProfile p = LinkProfile::Cslip144();
  p.loss_prob = 0.01;
  p.duplicate_prob = 0.01;
  return p;
}

class Roaming : public Workload {
 public:
  explicit Roaming(const RoamingInputs* in) : in_(in) {}

  void Setup() override {
    RegisterEcho(bed_->server()->qrpc());
    for (int j = 0; j < kRoamObjects; ++j) {
      const Status s = bed_->server()->store()->Create(
          MakeRdo("tile/" + std::to_string(j), "lww", kTileCode, in_->tiles[j]));
      if (!s.ok()) setup_errors_++;
    }
    ClientNodeOptions options;
    options.access.cache_capacity_bytes = 6 * 1024;
    clients_.reserve(in_->clients);
    for (uint32_t c = 0; c < in_->clients; ++c) {
      const auto& cl = in_->per_client[c];
      const std::string host = "r" + std::to_string(c);
      clients_.push_back(AddClient(host, NoisyCslip(),
                                   std::make_unique<IntervalConnectivity>(cl.cslip_up),
                                   options));
      if (cl.wavelan) {
        AddClient(host, LinkProfile::WaveLan2(),
                  std::make_unique<PeriodicConnectivity>(
                      Duration::Seconds(20), Duration::Seconds(280),
                      TimePoint::Epoch() + Duration::Micros(cl.wavelan_phase_us)),
                  options);
      }
    }
    ops_.reserve(in_->items.size());
  }

  void Schedule() override {
    for (const auto& item : in_->items) {
      bed_->loop()->ScheduleAt(TimePoint::Epoch() + Duration::Micros(item.due_us),
                               [this, &item] { item.read ? Read(item) : Write(item); });
    }
  }

  void CheckFinal(RoundResult* r) override {
    if (setup_errors_ > 0) r->Error("roaming: seeding objects failed");
  }

 private:
  void Write(const RoamingInputs::Item& item) {
    const size_t i = AddOp(item.client, true);
    RoverClientNode* node = clients_[item.client];
    QrpcCallOptions options;
    if (item.supersede) options.supersede_key = "position";
    QrpcCall call;
    {
      Timed t(Api::kQrpcCall);
      call = node->qrpc()->Call("server", "echo", {item.arg}, options);
    }
    ops_[i].rpc_id = call.rpc_id;
    SampleQueue(node);
    call.committed.OnReady([this, i](const TimePoint&) { Commit(i); });
    call.result.OnReady([this, i, &item](const QrpcResult& res) {
      bool ok = res.status.ok();
      if (ok && !EchoMatches(item, res.value)) {
        ok = false;
        mismatches_++;
      }
      Finish(i, ok);
    });
  }

  // A superseded write is answered by its successor: the echo must then be
  // a later supersedable write of the same client.
  static bool EchoMatches(const RoamingInputs::Item& item, const RpcValue& value) {
    auto v = RpcValueAsString(value);
    if (!v.ok()) return false;
    if (*v == item.arg) return true;
    if (!item.supersede) return false;
    char tag = 0, mine = 0;
    uint32_t client = 0, seq = 0, my_client = 0, my_seq = 0;
    return ParsePayload(*v, &tag, &client, &seq) &&
           ParsePayload(item.arg, &mine, &my_client, &my_seq) && tag == 's' &&
           client == my_client && seq > my_seq;
  }

  // A read imports the tile (from the cache when it holds it) and counts
  // its features locally; the count must match the generated tile.
  void Read(const RoamingInputs::Item& item) {
    const size_t i = AddOp(item.client, false);
    AccessManager* am = clients_[item.client]->access();
    const std::string object = "tile/" + std::to_string(item.object);
    Promise<ImportResult> p;
    {
      Timed t(Api::kImport);
      p = am->Import(object);
    }
    p.OnReady([this, i, am, object, &item](const ImportResult& res) {
      if (!res.status.ok()) {
        Finish(i, false);
        return;
      }
      InvokeOptions local;
      local.force_site = ExecutionSite::kClient;
      Promise<InvokeResult> inv;
      {
        Timed t(Api::kInvoke);
        inv = am->Invoke(object, "features", {}, local);
      }
      inv.OnReady([this, i, &item](const InvokeResult& r) {
        bool ok = r.status.ok();
        if (ok && r.value != std::to_string(in_->tile_features[item.object])) {
          ok = false;
          mismatches_++;
        }
        Finish(i, ok);
      });
    });
  }

  const RoamingInputs* in_;
  int setup_errors_ = 0;
};

// ---------------------------------------------------------------------------
// apps: closed loop per user with seeded exponential think time. A few
// hundred users on a seeded mix of the paper's four networks run the real
// mail reader and calendar: Zipf-skewed message reads over a shared inbox
// (each read's read-mark is exported in the background), calendar lookups,
// bookings on a handful of shared calendars (Book + Sync; an unresolvable
// double-booking is fixed by cancelling the slot and syncing again), and
// mail sends. subscribe_on_import is on, so every committed change fans
// invalidations out to the other holders of the object. Client caches are
// smaller than the corpus, so the cache evicts.

constexpr int kCalendars = 4;
constexpr size_t kAppsCacheBytes = 16 * 1024;

enum class AppOp : uint8_t { kReadMessage, kLookup, kBook, kSend };

struct AppsInputs {
  uint32_t users = 0;
  std::vector<MailMessage> corpus;
  struct User {
    int network = 0;
    int calendar = 0;
    double start_s = 0;
    std::vector<AppOp> ops;
    std::vector<double> think_s;
    std::vector<uint32_t> arg;  // message index, or slot index
  };
  std::vector<User> per_user;
  std::vector<std::string> slots;
};

AppsInputs GenerateApps(uint64_t seed, bool small) {
  AppsInputs in;
  in.users = small ? 24 : 360;
  MailCorpusOptions corpus;
  corpus.message_count = small ? 40 : 160;
  corpus.mean_body_bytes = 1200;
  corpus.sender_pool = 12;
  // The corpus is a fixed data set; the seed drives what users do with it.
  corpus.seed = 1995;
  in.corpus = GenerateMailCorpus(corpus);
  for (int d = 0; d < 5; ++d) {
    for (int h = 8; h < 18; ++h) {
      for (int m = 0; m < 60; m += 5) {
        char slot[32];
        std::snprintf(slot, sizeof(slot), "d%d-%02d:%02d", d, h, m);
        in.slots.push_back(slot);
      }
    }
  }
  Rng rng(seed ^ 0xa995'0002ull);
  ZipfSampler zipf(in.corpus.size(), 1.0, seed ^ 0xa995'0003ull);
  // Fixed shares, so seeds differ in order and timing, not in proportions:
  // per 20 users 3 Ethernet, 10 WaveLAN, 6 CSLIP 14.4 and 1 CSLIP 2.4; each
  // user runs the same op multiset in a seeded order.
  constexpr int kNetworkOfSlot[20] = {0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3};
  const std::vector<std::pair<AppOp, int>> mix =
      small ? std::vector<std::pair<AppOp, int>>{{AppOp::kReadMessage, 4},
                                                      {AppOp::kLookup, 2},
                                                      {AppOp::kBook, 2},
                                                      {AppOp::kSend, 2}}
                  : std::vector<std::pair<AppOp, int>>{{AppOp::kReadMessage, 6},
                                                      {AppOp::kLookup, 3},
                                                      {AppOp::kBook, 3},
                                                      {AppOp::kSend, 2}};
  for (uint32_t u = 0; u < in.users; ++u) {
    AppsInputs::User user;
    user.network = kNetworkOfSlot[u % 20];
    user.calendar = static_cast<int>(u % kCalendars);
    user.start_s = rng.NextExponential(5.0);
    for (const auto& [op, n] : mix) user.ops.insert(user.ops.end(), n, op);
    for (size_t k = user.ops.size(); k > 1; --k) {
      std::swap(user.ops[k - 1], user.ops[rng.NextBelow(k)]);
    }
    for (AppOp op : user.ops) {
      user.think_s.push_back(rng.NextExponential(3.0));
      user.arg.push_back(op == AppOp::kReadMessage
                             ? static_cast<uint32_t>(zipf.Next())
                             : static_cast<uint32_t>(rng.NextBelow(in.slots.size())));
    }
    in.per_user.push_back(std::move(user));
  }
  return in;
}

class Apps : public Workload {
 public:
  explicit Apps(const AppsInputs* in) : in_(in) {}

  void Setup() override {
    RoverServerNode* server = bed_->server();
    mail_ = std::make_unique<MailService>(server);
    int errors = 0;
    errors += !mail_->CreateFolder("inbox").ok();
    for (const MailMessage& m : in_->corpus) errors += !mail_->DeliverLocal("inbox", m).ok();
    for (int c = 0; c < kCalendars; ++c) {
      errors += !CreateCalendar(server, "team-" + std::to_string(c)).ok();
      errors += !mail_->CreateFolder("sent-" + std::to_string(c)).ok();
    }
    setup_errors_ = errors;
    ClientNodeOptions options;
    options.access.subscribe_on_import = true;
    options.access.cache_capacity_bytes = kAppsCacheBytes;
    const std::vector<LinkProfile> nets = LinkProfile::PaperNetworks();
    users_.resize(in_->users);
    for (uint32_t u = 0; u < in_->users; ++u) {
      const auto& spec = in_->per_user[u];
      RoverClientNode* node = AddClient("u" + std::to_string(u), nets[spec.network], nullptr,
                                        options);
      clients_.push_back(node);
      users_[u].reader = std::make_unique<MailReader>(bed_->loop(), node);
      users_[u].calendar = std::make_unique<CalendarApp>(
          bed_->loop(), node, "team-" + std::to_string(spec.calendar));
    }
  }

  void Schedule() override {
    for (uint32_t u = 0; u < in_->users; ++u) {
      bed_->loop()->ScheduleAt(
          TimePoint::Epoch() + Duration::Seconds(in_->per_user[u].start_s),
          [this, u] { Start(u); });
    }
  }

  void CheckFinal(RoundResult* r) override;

 private:
  struct User {
    std::unique_ptr<MailReader> reader;
    std::unique_ptr<CalendarApp> calendar;
    size_t next = 0;
    bool booking_cancelled = false;  // conflict resolution gave the slot away
  };
  struct Booking {
    int calendar;
    std::string slot;
    std::string what;
  };

  // Opens the inbox and the user's calendar, then starts the session.
  void Start(uint32_t u) {
    const size_t i = AddOp(u, false);
    Promise<Result<std::vector<std::string>>> folder;
    {
      Timed t(Api::kMailReader);
      folder = users_[u].reader->OpenFolder("inbox");
    }
    folder.OnReady([this, u, i](const Result<std::vector<std::string>>& res) {
      Finish(i, res.ok());
      const size_t j = AddOp(u, false);
      Promise<ImportResult> cal;
      {
        Timed t(Api::kImport);
        cal = clients_[u]->access()->Import(users_[u].calendar->object_name());
      }
      cal.OnReady([this, u, j](const ImportResult& res) {
        Finish(j, res.status.ok());
        Next(u);
      });
    });
  }

  void Next(uint32_t u) {
    const auto& spec = in_->per_user[u];
    User& user = users_[u];
    if (user.next >= spec.ops.size()) return;
    const size_t k = user.next++;
    bed_->loop()->ScheduleAfter(Duration::Seconds(spec.think_s[k]), [this, u, k] { Do(u, k); });
  }

  void Do(uint32_t u, size_t k) {
    const auto& spec = in_->per_user[u];
    switch (spec.ops[k]) {
      case AppOp::kReadMessage: ReadMessage(u, spec.arg[k]); break;
      case AppOp::kLookup: Lookup(u, in_->slots[spec.arg[k]]); break;
      case AppOp::kBook: Book(u, in_->slots[spec.arg[k]]); break;
      case AppOp::kSend: Send(u, k); break;
    }
  }

  void ReadMessage(uint32_t u, uint32_t m) {
    const size_t i = AddOp(u, false);
    const std::string id = in_->corpus[m].id;
    Promise<Result<std::string>> p;
    {
      Timed t(Api::kMailReader);
      p = users_[u].reader->ReadMessage("inbox", id);
    }
    p.OnReady([this, u, i, m, id](const Result<std::string>& body) {
      const bool ok = body.ok() && *body == in_->corpus[m].body;
      if (body.ok() && !ok) mismatches_++;
      Finish(i, ok);
      ExportReadMark(u, MailMessageObject("inbox", id));
      Next(u);
    });
  }

  // Background export of a message's read-mark (not awaited by the user).
  void ExportReadMark(uint32_t u, const std::string& object) {
    if (!clients_[u]->access()->IsTentative(object)) return;
    const size_t i = AddOp(u, true);
    Export(u, i, object, Priority::kBackground, [this, i](const ExportResult& res) {
      Finish(i, res.status.ok());
    });
  }

  // Export with the rpc id recorded for the call-return lookup (the first
  // export of an operation; a retry after a conflict keeps it).
  void Export(uint32_t u, size_t i, const std::string& object, Priority priority,
              std::function<void(const ExportResult&)> done) {
    QrpcClient* q = clients_[u]->qrpc();
    const uint64_t before = q->next_rpc_id();
    Promise<ExportResult> p;
    {
      Timed t(Api::kExport);
      p = clients_[u]->access()->Export(object, priority);
    }
    if (ops_[i].rpc_id == 0 && q->next_rpc_id() == before + 1) ops_[i].rpc_id = before;
    p.OnReady(std::move(done));
  }

  void Lookup(uint32_t u, const std::string& slot) {
    const size_t i = AddOp(u, false);
    Promise<InvokeResult> p;
    {
      Timed t(Api::kInvoke);
      p = clients_[u]->access()->Invoke(users_[u].calendar->object_name(), "lookup", {slot});
    }
    p.OnReady([this, u, i](const InvokeResult& res) {
      Finish(i, res.status.ok());
      Next(u);
    });
  }

  void Book(uint32_t u, const std::string& slot) {
    const size_t i = AddOp(u, true);
    const std::string what = "u" + std::to_string(u);
    QrpcClient* q = clients_[u]->qrpc();
    const uint64_t before = q->next_rpc_id();
    Promise<InvokeResult> p;
    {
      Timed t(Api::kCalendarApp);
      p = users_[u].calendar->Book(slot, what);
    }
    const uint64_t rpc = q->next_rpc_id() == before + 1 ? before : 0;
    p.OnReady([this, u, i, slot, what, rpc](const InvokeResult& res) {
      if (!res.status.ok()) {
        // The user's replica already shows the slot as taken: the app
        // answered, and the user moves on.
        Finish(i, true);
        Next(u);
        return;
      }
      if (res.site == ExecutionSite::kServer) {
        ops_[i].rpc_id = rpc;  // the booking committed at the server
        booked_.push_back({in_->per_user[u].calendar, slot, what});
        Finish(i, true);
        Next(u);
        return;
      }
      Sync(u, i, slot, what, 0);
    });
  }

  // Exports the tentative booking; an unresolvable double-booking is fixed
  // the way the calendar application intends: cancel the conflicting
  // slots locally (the other user keeps them) and sync again.
  void Sync(uint32_t u, size_t i, std::string slot, std::string what, int attempt) {
    const std::string object = users_[u].calendar->object_name();
    Export(u, i, object, Priority::kDefault,
           [this, u, i, slot, what, attempt, object](const ExportResult& res) {
             if (res.status.ok()) {
               if (!users_[u].booking_cancelled) {
                 booked_.push_back({in_->per_user[u].calendar, slot, what});
               }
               users_[u].booking_cancelled = false;
               Finish(i, true);
               Next(u);
               return;
             }
             if (res.status.code() != StatusCode::kConflict || attempt >= 3) {
               Finish(i, false);
               Next(u);
               return;
             }
             auto slots = users_[u].calendar->ConflictingSlots();
             if (!slots.ok() || slots->empty()) {
               Finish(i, false);
               Next(u);
               return;
             }
             // Sync again once every local cancel has run.
             auto pending = std::make_shared<size_t>(slots->size());
             for (const std::string& s : *slots) {
               if (s == slot) users_[u].booking_cancelled = true;
               InvokeOptions local;
               local.force_site = ExecutionSite::kClient;
               Promise<InvokeResult> cancel;
               {
                 Timed t(Api::kInvoke);
                 cancel = clients_[u]->access()->Invoke(object, "cancel", {s}, local);
               }
               cancel.OnReady([this, u, i, slot, what, attempt, pending](const InvokeResult&) {
                 if (--*pending == 0) Sync(u, i, slot, what, attempt + 1);
               });
             }
           });
  }

  void Send(uint32_t u, size_t k) {
    const size_t i = AddOp(u, true);
    const auto& spec = in_->per_user[u];
    MailMessage msg = in_->corpus[spec.arg[k] % in_->corpus.size()];
    msg.id = "u" + std::to_string(u) + "-" + std::to_string(k);
    msg.to = "sent-" + std::to_string(spec.calendar);
    QrpcCall call;
    {
      Timed t(Api::kMailReader);
      call = users_[u].reader->Send(msg.to, msg);
    }
    ops_[i].rpc_id = call.rpc_id;
    // The user waits for the message to be safely logged, not delivered.
    call.committed.OnReady([this, u, i](const TimePoint&) {
      Commit(i);
      Next(u);
    });
    call.result.OnReady([this, i, msg](const QrpcResult& res) {
      auto v = res.status.ok() ? RpcValueAsString(res.value) : Result<std::string>(res.status);
      const bool ok = v.ok() && *v == msg.id;
      if (ok) sent_.push_back({msg.to, msg.id});
      Finish(i, ok);
    });
  }

  const AppsInputs* in_;
  std::unique_ptr<MailService> mail_;
  std::vector<User> users_;
  std::vector<Booking> booked_;
  std::vector<std::pair<std::string, std::string>> sent_;  // (folder, id)
  int setup_errors_ = 0;
};

// Server state must match what clients hold as committed: every booking a
// sync committed and every accepted message is in the server's final state,
// and a client's committed copy of its calendar equals the server's when
// their versions agree.
void Apps::CheckFinal(RoundResult* r) {
  if (setup_errors_ > 0) r->Error("apps: seeding the corpus failed");
  ObjectStore* store = bed_->server()->store();
  std::map<int, std::map<std::string, std::string>> calendars;
  for (int c = 0; c < kCalendars; ++c) {
    auto desc = store->Get(CalendarObject("team-" + std::to_string(c)));
    auto kv = desc.ok() ? TclListSplit(desc->data) : Result<std::vector<std::string>>(desc.status());
    if (!kv.ok()) {
      r->Error("apps: server calendar unreadable");
      continue;
    }
    for (size_t i = 0; i + 1 < kv->size(); i += 2) calendars[c][(*kv)[i]] = (*kv)[i + 1];
  }
  for (const Booking& b : booked_) {
    auto it = calendars[b.calendar].find(b.slot);
    if (it == calendars[b.calendar].end() || it->second != b.what) {
      r->Error("apps: committed booking " + b.slot + " for " + b.what + " missing at server");
    }
  }
  std::map<std::string, std::set<std::string>> folders;
  for (const auto& [folder, id] : sent_) {
    if (!folders.count(folder)) {
      auto desc = store->Get(MailFolderObject(folder));
      auto ids = desc.ok() ? TclListSplit(desc->data) : Result<std::vector<std::string>>(desc.status());
      if (ids.ok()) folders[folder] = std::set<std::string>(ids->begin(), ids->end());
    }
    if (!folders[folder].count(id) || !store->Exists(MailMessageObject(folder, id))) {
      r->Error("apps: accepted message " + id + " missing at server");
    }
  }
  for (uint32_t u = 0; u < in_->users; ++u) {
    AccessManager* am = clients_[u]->access();
    const std::string object = users_[u].calendar->object_name();
    if (!am->HasCached(object)) continue;
    auto server = store->Get(object);
    auto version = am->CachedVersion(object);
    auto committed = am->ReadCommittedData(object);
    if (server.ok() && version.ok() && committed.ok() && *version == server->version &&
        *committed != server->data) {
      r->Error("apps: " + object + " at u" + std::to_string(u) +
               " differs from the server at the same version");
    }
  }
}

// ---------------------------------------------------------------------------
// Rounds.

struct Inputs {
  std::string workload;
  FaninInputs fanin;
  RoamingInputs roaming;
  AppsInputs apps;
  uint64_t digest = 0;
  std::string sizes;
};

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool GenerateInputs(const std::string& workload, uint64_t seed, bool small,
                    Inputs* in) {
  in->workload = workload;
  uint64_t h = 1469598103934665603ull;
  char buf[160];
  if (workload == "fanin") {
    in->fanin = GenerateFanin(seed, small);
    for (const auto& b : in->fanin.bursts) h = Fnv(h, std::to_string(b.due_us));
    for (const auto& a : in->fanin.args) h = Fnv(h, a);
    std::snprintf(buf, sizeof(buf), "clients=%u ops=%zu bursts=%zu", in->fanin.clients,
                  in->fanin.args.size(), in->fanin.bursts.size());
  } else if (workload == "roaming") {
    in->roaming = GenerateRoaming(seed, small);
    for (const auto& c : in->roaming.per_client) {
      for (const auto& iv : c.cslip_up) h = Fnv(h, std::to_string(iv.start.micros()));
    }
    for (const auto& it : in->roaming.items) {
      h = Fnv(h, std::to_string(it.due_us) + it.arg + std::to_string(it.object));
    }
    std::snprintf(buf, sizeof(buf), "clients=%u items=%zu objects=%d", in->roaming.clients,
                  in->roaming.items.size(), kRoamObjects);
  } else if (workload == "apps") {
    in->apps = GenerateApps(seed, small);
    for (const auto& m : in->apps.corpus) h = Fnv(h, m.body);
    for (const auto& u : in->apps.per_user) {
      h = Fnv(h, std::to_string(u.network) + "/" + std::to_string(u.start_s));
      for (size_t k = 0; k < u.ops.size(); ++k) {
        h = Fnv(h, std::to_string(static_cast<int>(u.ops[k])) + "/" + std::to_string(u.arg[k]) +
                       "/" + std::to_string(u.think_s[k]));
      }
    }
    std::snprintf(buf, sizeof(buf), "users=%u messages=%zu calendars=%d ops_per_user=%zu",
                  in->apps.users, in->apps.corpus.size(), kCalendars,
                  in->apps.per_user.empty() ? size_t{0} : in->apps.per_user[0].ops.size());
  } else {
    return false;
  }
  in->digest = h;
  in->sizes = buf;
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const Inputs& in) {
  if (in.workload == "fanin") return std::make_unique<Fanin>(&in.fanin);
  if (in.workload == "roaming") return std::make_unique<Roaming>(&in.roaming);
  return std::make_unique<Apps>(&in.apps);
}

void CollectLayers(Workload* w, const ExecCounts& counts, double zone_s[kNumZones],
                   RoundResult* r);

RoundResult RunRound(const Inputs& in, bool traced, bool simcheck) {
  RoundResult r;
  ExecCounts counts;
  std::unique_ptr<obs::CheckListener> listener;
  check::SimCheck* sim = nullptr;
  if (simcheck) {
    auto c = std::make_unique<Counting<check::SimCheck>>(&counts, "server");
    sim = c.get();
    listener = std::move(c);
  } else {
    listener = std::make_unique<Counting<obs::CheckListener>>(&counts, "server");
  }
  auto& attr = obs::CpuAttribution::Instance();
  attr.set_enabled(traced);
  attr.Reset();
  ApiTimer::Get().Start(traced);

  std::unique_ptr<Workload> w = MakeWorkload(in);
  w->set_traced(traced);
  const double t0 = WallSeconds();
  w->Setup();
  r.setup_s = WallSeconds() - t0;
  if (sim != nullptr) {
    sim->Attach(w->bed());
  } else {
    w->bed()->server()->SetCheckListener(listener.get());
  }
  const ApiTotals setup_api = ApiTimer::Get().totals();
  ApiTimer::Get().Start(traced);
  attr.Reset();

  const uint64_t copies0 = PayloadCopyBytes();
  const double cpu0 = CpuSeconds();
  w->Schedule();
  {
    const double run0 = CpuSeconds();
    w->bed()->Run();
    r.run_cpu_s = CpuSeconds() - run0;
  }
  r.cpu_s = CpuSeconds() - cpu0;
  r.copy_bytes = PayloadCopyBytes() - copies0;
  attr.set_enabled(false);
  double zone_s[kNumZones] = {};
  for (size_t z = 0; z < kNumZones; ++z) {
    zone_s[z] = static_cast<double>(attr.totals(static_cast<obs::CpuZone>(z)).cycles) /
                attr.CyclesPerSecond();
  }
  ApiTotals api = ApiTimer::Get().totals();
  ApiTimer::Get().Start(false);
  const size_t add_client = static_cast<size_t>(Api::kAddClient);
  api.seconds[add_client] = setup_api.seconds[add_client];
  api.calls[add_client] = setup_api.calls[add_client];

  // --- correctness and end-to-end samples ---
  if (w->mismatches_ > 0) {
    r.Error(std::to_string(w->mismatches_) + " results differ from their inputs");
  }
  if (w->bad_resolutions_ > 0) r.Error("operations resolved more than once");
  uint64_t acked_unresolved = 0;
  for (Op& op : w->ops()) {
    // An export's commit is not a promise the caller sees: take the
    // durability point of its rpc from the client's lifecycle tracer.
    if (op.write && op.commit_us < 0 && op.rpc_id != 0) {
      const obs::RpcSpan* span = w->clients()[op.client]->tracer()->Find(op.rpc_id);
      if (span != nullptr && span->Has(obs::RpcEvent::kFlushedDurable)) {
        op.durable = true;
        op.commit_us = span->FirstTime(obs::RpcEvent::kFlushedDurable).micros();
      }
    }
    ++r.attempted;
    if (!op.resolved) {
      ++r.failed;
      if (op.durable) ++acked_unresolved;
    } else if (!op.ok) {
      ++r.failed;
    } else {
      ++r.completed;
    }
    const double due_us = static_cast<double>(op.due.micros());
    if (op.write) {
      if (op.commit_us >= 0) r.call_return_ms.push_back((op.commit_us - due_us) / 1e3);
      if (op.resolved && op.ok) r.completion_ms.push_back((op.done_us - due_us) / 1e3);
    } else if (op.resolved && op.ok) {
      r.read_ms.push_back((op.done_us - due_us) / 1e3);
    }
    r.Mix(static_cast<uint64_t>(op.commit_us));
    r.Mix(static_cast<uint64_t>(op.done_us));
    r.Mix(op.ok);
  }
  if (acked_unresolved > 0) {
    r.Error(std::to_string(acked_unresolved) + " durably acked calls unresolved at quiesce");
  }
  // Re-executions violate at-most-once: they count as failed, never hidden.
  r.failed += counts.reexecuted();
  r.completed -= std::min(r.completed, counts.reexecuted());
  w->CheckFinal(&r);
  if (sim != nullptr) {
    sim->CheckQuiesced();
    for (const auto& v : sim->violations()) {
      r.Error("simcheck " + v.invariant + " at " + v.node + ": " + v.detail);
    }
  }
  for (const auto& link : w->bed()->network()->all_links()) r.wire_bytes += link->stats().wire_bytes;
  r.Mix(r.wire_bytes);

  if (traced) {
    CollectLayers(w.get(), counts, zone_s, &r);
    double timed = 0;
    for (size_t a = 0; a < kNumApis; ++a) {
      r.layer[kApiMetric[a]] =
          api.calls[a] > 0 ? api.seconds[a] * 1e6 / static_cast<double>(api.calls[a]) : 0;
      if (a != add_client) timed += api.seconds[a];
    }
    double zones = 0;
    for (double z : zone_s) zones += z;
    r.layer["obs.unattributed_cpu_frac"] = std::max(0.0, 1.0 - Ratio(zones + timed, r.cpu_s));
    r.layer["sim.run_cpu_s"] = r.run_cpu_s;
  }
  return r;
}

void CollectLayers(Workload* w, const ExecCounts& counts, double zone_s[kNumZones],
                   RoundResult* r) {
  auto zone = [&](obs::CpuZone z) { return zone_s[static_cast<size_t>(z)]; };
  const double ops = static_cast<double>(std::max<uint64_t>(1, r->completed));
  auto& L = r->layer;
  L["sim.event_pop_cpu_s"] = zone(obs::CpuZone::kEventLoopPop);
  L["sim.connectivity_cpu_s"] = zone(obs::CpuZone::kConnectivity);
  L["transport.sched_cpu_s"] = zone(obs::CpuZone::kSchedulerDispatch);
  L["qrpc.marshal_cpu_s"] = zone(obs::CpuZone::kMarshal);
  L["qrpc.log_flush_cpu_s"] = zone(obs::CpuZone::kWalFlush);
  L["store.invalidation_cpu_s"] = zone(obs::CpuZone::kInvalidationFanout);

  uint64_t lost = 0, rejected = 0, payload = 0;
  for (const auto& link : w->bed()->network()->all_links()) {
    const LinkStats s = link->stats();
    lost += s.frames_lost;
    rejected += s.frames_rejected;
    payload += s.payload_bytes;
  }
  L["sim.frames_lost"] = static_cast<double>(lost);
  L["sim.frames_rejected"] = static_cast<double>(rejected);

  // Client-side layers, summed over every client.
  uint64_t retries = 0, calls = 0, coalesced = 0, appends = 0, flushes = 0;
  AccessManagerStats am_total;
  std::vector<double> queue_wait_ms, log_wait_ms;
  std::unordered_map<uint32_t, std::vector<const Op*>> by_client;
  for (const Op& op : w->ops()) {
    if (op.rpc_id != 0) by_client[op.client].push_back(&op);
  }
  for (size_t c = 0; c < w->clients().size(); ++c) {
    RoverClientNode* node = w->clients()[c];
    retries += node->transport()->scheduler()->stats().retries;
    const QrpcClientStats q = node->qrpc()->stats();
    calls += q.calls;
    coalesced += q.coalesced;
    const StableLogStats log = node->log()->stats();
    appends += log.appends;
    flushes += log.flushes;
    const AccessManagerStats a = node->access()->stats();
    am_total.cache_hits += a.cache_hits;
    am_total.cache_misses += a.cache_misses;
    am_total.evictions += a.evictions;
    am_total.local_invokes += a.local_invokes;
    am_total.remote_invokes += a.remote_invokes;
    am_total.exports_completed += a.exports_completed;
    am_total.conflicts_unresolved += a.conflicts_unresolved;
    am_total.delta_bytes_saved += a.delta_bytes_saved;
    for (const Op* op : by_client[static_cast<uint32_t>(c)]) {
      if (!op->write) continue;
      const obs::RpcSpan* span = node->tracer()->Find(op->rpc_id);
      if (span == nullptr || !span->Has(obs::RpcEvent::kFlushedDurable)) continue;
      const TimePoint durable = span->FirstTime(obs::RpcEvent::kFlushedDurable);
      if (span->Has(obs::RpcEvent::kEnqueued)) {
        log_wait_ms.push_back((durable - span->FirstTime(obs::RpcEvent::kEnqueued)).millis());
      }
      if (span->Has(obs::RpcEvent::kTransmitted)) {
        queue_wait_ms.push_back((span->FirstTime(obs::RpcEvent::kTransmitted) - durable).millis());
      }
    }
  }
  for (RoverServerNode* s : w->bed()->AllServers()) {
    retries += s->transport()->scheduler()->stats().retries;
  }
  std::sort(queue_wait_ms.begin(), queue_wait_ms.end());
  std::sort(log_wait_ms.begin(), log_wait_ms.end());
  L["transport.queue_wait_ms_p50"] = queue_wait_ms.empty() ? 0 : Percentile(queue_wait_ms, 0.50);
  L["transport.queue_wait_ms_p99"] = queue_wait_ms.empty() ? 0 : Percentile(queue_wait_ms, 0.99);
  L["transport.retries_per_op"] = static_cast<double>(retries) / ops;
  L["transport.coalesced_frac"] = Ratio(static_cast<double>(coalesced), static_cast<double>(calls));
  L["transport.queue_depth_max"] = static_cast<double>(w->queue_depth_max());
  L["qrpc.copy_bytes_per_op"] = static_cast<double>(r->copy_bytes) / ops;
  L["qrpc.log_wait_ms_p50"] = log_wait_ms.empty() ? 0 : Percentile(log_wait_ms, 0.50);
  L["qrpc.records_per_flush"] = Ratio(static_cast<double>(appends), static_cast<double>(flushes));

  RoverServerNode* server = w->bed()->server();
  L["qrpc.dup_cache_hits"] = static_cast<double>(server->qrpc()->stats().duplicates);
  L["qrpc.dup_cache_evictions"] = static_cast<double>(counts.evictions);
  const ServerStoreStats store = server->stable_store()->stats();
  L["store.wal_txns_per_op"] = static_cast<double>(store.transactions_logged) / ops;
  L["store.snapshots"] = static_cast<double>(store.snapshots_written);
  L["store.repl_bytes_per_op"] =
      server->replication_sender() == nullptr
          ? 0
          : static_cast<double>(server->replication_sender()->stats().bytes_shipped) / ops;
  const RoverServerStats rs = server->rover()->stats();
  L["store.invalidations_per_export"] =
      Ratio(static_cast<double>(rs.invalidations_sent), static_cast<double>(rs.exports));
  L["store.delta_bytes_saved_frac"] =
      Ratio(static_cast<double>(am_total.delta_bytes_saved),
            static_cast<double>(am_total.delta_bytes_saved + payload));
  L["store.conflicts_unresolved_frac"] =
      Ratio(static_cast<double>(am_total.conflicts_unresolved),
            static_cast<double>(am_total.exports_completed + am_total.conflicts_unresolved));
  L["cache.hit_ratio"] = Ratio(static_cast<double>(am_total.cache_hits),
                               static_cast<double>(am_total.cache_hits + am_total.cache_misses));
  L["cache.evictions"] = static_cast<double>(am_total.evictions);
  L["rdo.local_invoke_frac"] =
      Ratio(static_cast<double>(am_total.local_invokes),
            static_cast<double>(am_total.local_invokes + am_total.remote_invokes));
}

// Per-layer metrics the public API cannot reach; listed instead of patched.
const char* const kMissingLayers[][2] = {
    {"tclite.commands_per_invoke",
     "InterpStats live on RdoInstances private to AccessManager and RoverServer; no stats() "
     "or registry counter exposes them"},
    {"tclite.parse_cache_hit_ratio", "same: the interpreters' parse caches are not public"},
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_cpu_s")) return "s";
  if (ends("_us")) return "us";
  if (name.find("_ms_") != std::string::npos) return "ms";
  if (ends("_frac") || ends("_ratio")) return "ratio";
  if (ends("_per_op")) return name.find("bytes") != std::string::npos ? "B/op" : "count/op";
  if (ends("_per_flush")) return "records";
  return "count";
}

int Usage() {
  std::fprintf(stderr,
               "usage: rover_perfbench --workload fanin|apps|roaming --seed N --seconds S "
               "--trace 0|1 [--small] [--simcheck] [--source-id ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool simcheck = false;
  bool small = false;
  std::string source_id = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--workload") {
      const char* v = next();
      if (v == nullptr) return Usage();
      workload = v;
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      const char* v = next();
      if (v == nullptr) return Usage();
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage();
      trace = std::strcmp(v, "1") == 0;
    } else if (a == "--small") {
      small = true;
    } else if (a == "--simcheck") {
      simcheck = true;
    } else if (a == "--source-id") {
      const char* v = next();
      if (v == nullptr) return Usage();
      source_id = v;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !(seconds > 0)) return Usage();

  // Provenance; non-optimized or sanitizer builds are refused outright.
  bool measurable = true;
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  measurable = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  measurable = false;
#endif
  if (!measurable) {
    std::fprintf(stderr, "refusing to measure a debug or sanitizer build (%s)\n",
                 ROVER_BENCH_BUILD_TYPE);
    return 3;
  }

  Inputs inputs;
  if (!GenerateInputs(workload, seed, small, &inputs)) return Usage();

  // One warm-up round first, outside the statistics: it pays the first
  // touch of the allocator's pages, which no later round repeats.
  RoundResult warmup = RunRound(inputs, false, simcheck);
  double peak_rss_mib = PeakRssMib();
  std::vector<RoundResult> plain, traced;
  KernelTime before = RunRefKernel();
  const double start = WallSeconds();
  const size_t min_rounds = 3;
  while (true) {
    const double elapsed = WallSeconds() - start;
    const size_t done = plain.size() + traced.size();
    if (done >= (trace ? 2 * min_rounds : min_rounds) && elapsed >= seconds) break;
    // A traced run alternates untraced and traced rounds, so the trace's
    // own cost is measured against rounds of the same process.
    const bool traced_round = trace && done % 2 == 1;
    ResetPeakRss();
    RoundResult r = RunRound(inputs, traced_round, simcheck);
    peak_rss_mib = std::max(peak_rss_mib, PeakRssMib());
    const KernelTime after = RunRefKernel();
    r.ref = {0.5 * (before.cpu_s + after.cpu_s), 0.5 * (before.wall_s + after.wall_s)};
    before = after;
    (traced_round ? traced : plain).push_back(std::move(r));
  }

  // Correctness across rounds: every round must pass its checks and
  // reproduce the warm-up round's simulated outputs exactly.
  std::vector<std::string> errors;
  auto error = [&errors](const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  };
  uint64_t attempted = 0, failed = 0;
  const uint64_t digest = warmup.digest;
  for (const auto& e : warmup.errors) error(e);
  for (const auto* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& e : r.errors) error(e);
      if (r.digest != digest) error("simulated outputs differ between rounds");
    }
  }
  const RoundResult& first = plain.front();

  std::vector<Metric> metrics;
  if (!trace) {
    std::vector<double> opc, setup;
    for (const RoundResult& r : plain) {
      opc.push_back(static_cast<double>(r.completed) / (r.cpu_s * kRefKernelS / r.ref.cpu_s));
      setup.push_back(r.setup_s * kRefKernelS / r.ref.wall_s);
    }
    metrics.push_back({"ops_per_cpu_s", "ops/s", Median(opc)});
    metrics.push_back({"setup_s", "s", Median(setup)});
    metrics.push_back({"peak_rss_mib", "MiB", peak_rss_mib});
    metrics.push_back({"wire_bytes_per_op", "B/op",
                       static_cast<double>(first.wire_bytes) /
                           static_cast<double>(std::max<uint64_t>(1, first.completed))});
    auto pct = [&](const char* base, std::vector<double> v) {
      std::sort(v.begin(), v.end());
      if (v.empty()) return;  // absent: no samples on this workload
      metrics.push_back({std::string(base) + "_p50", "ms", Percentile(v, 0.50)});
      metrics.push_back({std::string(base) + "_p99", "ms", Percentile(v, 0.99)});
    };
    pct("call_return_ms", first.call_return_ms);
    pct("completion_ms", first.completion_ms);
    pct("read_ms", first.read_ms);
  } else {
    std::map<std::string, std::vector<double>> per;
    for (const RoundResult& r : traced) {
      for (const auto& [k, v] : r.layer) per[k].push_back(v);
    }
    std::vector<double> plain_cpu, traced_cpu;
    for (const RoundResult& r : plain) plain_cpu.push_back(r.cpu_s / static_cast<double>(r.completed));
    for (const RoundResult& r : traced) traced_cpu.push_back(r.cpu_s / static_cast<double>(r.completed));
    per["obs.trace_overhead_frac"] = {Median(traced_cpu) / Median(plain_cpu) - 1.0};
    for (const auto& [k, v] : per) metrics.push_back({k, LayerUnit(k), Median(v)});
  }

  // Human-readable report, then provenance, then the result line.
  std::printf("rover perfbench: workload=%s seed=%" PRIu64 " rounds=%zu+%zu traced (%s)\n",
              workload.c_str(), seed, plain.size(), traced.size(), inputs.sizes.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %16.6f ratio (failed %" PRIu64 " of %" PRIu64 " attempted)\n",
              "failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  if (trace) {
    for (const auto& m : kMissingLayers) std::printf("  missing %s: %s\n", m[0], m[1]);
  }
  std::printf("  per round, unscaled (ops/cpu-s, setup s, reference kernel cpu ms):");
  std::vector<double> ref_ms;
  for (const RoundResult& r : plain) {
    std::printf(" %.0f/%.4f/%.1f", static_cast<double>(r.completed) / r.cpu_s, r.setup_s,
                r.ref.cpu_s * 1e3);
    ref_ms.push_back(r.ref.cpu_s * 1e3);
  }
  std::printf("\n");
  for (const auto& e : errors) std::printf("  CHECK FAILED: %s\n", e.c_str());

  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  std::printf(
      "{\"provenance\": {\"source\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %ld, \"host\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"sizes\": \"%s\", \"inputs_digest\": \"%016" PRIx64 "\", \"sim_digest\": \"%016" PRIx64
      "\", \"rounds\": %zu, \"traced_rounds\": %zu, \"simcheck\": %s, \"ref_kernel_cpu_ms\": %.3f}}\n",
      JsonEscape(source_id).c_str(), ROVER_BENCH_BUILD_TYPE, ROVER_BENCH_CXX,
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(host).c_str(), workload.c_str(), seed,
      inputs.sizes.c_str(), inputs.digest, digest, plain.size(), traced.size(),
      simcheck ? "true" : "false", Median(ref_ms));

  std::string line = "{\"correct\": ";
  line += errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
