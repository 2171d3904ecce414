#include "src/obs/cpu_scope.h"

#include <chrono>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace rover {
namespace obs {

namespace {

inline uint64_t ReadCycleCounter() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

}  // namespace

std::string_view CpuZoneName(CpuZone zone) {
  switch (zone) {
    case CpuZone::kSchedulerDispatch:
      return "scheduler_dispatch";
    case CpuZone::kConnectivity:
      return "connectivity_lookup";
    case CpuZone::kEventLoopPop:
      return "event_loop_pop";
    case CpuZone::kMarshal:
      return "marshal";
    case CpuZone::kWalFlush:
      return "wal_flush";
    case CpuZone::kInvalidationFanout:
      return "invalidation_fanout";
    case CpuZone::kCount:
      break;
  }
  return "unknown";
}

CpuAttribution& CpuAttribution::Instance() {
  static CpuAttribution instance;
  return instance;
}

void CpuAttribution::Reset() {
  for (auto& t : totals_) {
    t = CpuZoneTotals{};
  }
  depth_ = 0;
}

double CpuAttribution::CyclesPerSecond() {
  if (cycles_per_sec_ > 0) {
    return cycles_per_sec_;
  }
  // One short calibration against the monotonic clock. 10ms keeps the
  // relative error well under 1% on anything this repo runs on.
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t c0 = ReadCycleCounter();
  for (;;) {
    const auto t1 = std::chrono::steady_clock::now();
    const std::chrono::duration<double> dt = t1 - t0;
    if (dt.count() >= 0.010) {
      const uint64_t c1 = ReadCycleCounter();
      cycles_per_sec_ = static_cast<double>(c1 - c0) / dt.count();
      break;
    }
  }
  return cycles_per_sec_;
}

CpuScope::CpuScope(CpuZone zone) {
  CpuAttribution& a = CpuAttribution::Instance();
  if (!a.enabled_ || a.depth_ >= CpuAttribution::kMaxDepth) {
    return;
  }
  active_ = true;
  auto& frame = a.stack_[a.depth_++];
  frame.zone = zone;
  frame.child_cycles = 0;
  frame.start = ReadCycleCounter();
}

CpuScope::~CpuScope() {
  if (!active_) {
    return;
  }
  CpuAttribution& a = CpuAttribution::Instance();
  const uint64_t end = ReadCycleCounter();
  const auto& frame = a.stack_[--a.depth_];
  const uint64_t self = end - frame.start;
  auto& totals = a.totals_[static_cast<size_t>(frame.zone)];
  // Exclusive time: subtract what nested scopes already charged elsewhere.
  totals.cycles += self > frame.child_cycles ? self - frame.child_cycles : 0;
  ++totals.enters;
  if (a.depth_ > 0) {
    a.stack_[a.depth_ - 1].child_cycles += self;
  }
}

}  // namespace obs
}  // namespace rover
