// Per-subsystem CPU attribution. A CpuScope is an RAII cycle-counter timer
// charged to one of a fixed set of zones (scheduler dispatch, connectivity
// lookup, event-loop pop, marshalling, WAL flush, invalidation fan-out, the
// server's duplicate cache).
// Scopes nest: a zone is charged only its *exclusive* cycles -- time spent
// inside an enclosed child scope is subtracted -- so the per-zone table
// sums to (at most) total instrumented time instead of double-counting.
//
// Attribution is off by default and costs one predicted branch per scope
// when disabled, so the hot paths stay clean in normal runs. The benches
// enable it and report the per-zone totals beside their results, so a
// regression in one layer is visible as a number, not a guess.
// Single-threaded by design, like the simulator.

#ifndef ROVER_SRC_OBS_CPU_SCOPE_H_
#define ROVER_SRC_OBS_CPU_SCOPE_H_

#include <cstdint>
#include <string_view>

namespace rover {
namespace obs {

enum class CpuZone : uint8_t {
  kSchedulerDispatch = 0,  // scheduler enqueue/drain/batch outcome
  kConnectivity,           // peer link lookup + wakeup arming
  kEventLoopPop,           // event-loop pop: heap removal and slot release
  kMarshal,                // frame encode/decode
  kWalFlush,               // stable log / WAL flush path
  kInvalidationFanout,     // server invalidation encode + enqueue
  kDupCache,               // completion-record lookup, insert, prune, capture
  kCount,
};

std::string_view CpuZoneName(CpuZone zone);

struct CpuZoneTotals {
  uint64_t cycles = 0;  // exclusive cycles charged to the zone
  uint64_t enters = 0;  // scope entries
};

class CpuAttribution {
 public:
  static CpuAttribution& Instance();

  // Enabling mid-run is fine; cycles accumulate from that point on.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void Reset();

  const CpuZoneTotals& totals(CpuZone zone) const {
    return totals_[static_cast<size_t>(zone)];
  }

  // Measured once (against the monotonic clock) so cycle totals can be
  // reported as seconds; cached after the first call.
  double CyclesPerSecond();

 private:
  friend class CpuScope;
  static constexpr int kMaxDepth = 16;

  struct Frame {
    CpuZone zone;
    uint64_t start = 0;
    uint64_t child_cycles = 0;  // cycles spent in nested scopes
  };

  bool enabled_ = false;
  int depth_ = 0;
  Frame stack_[kMaxDepth];
  CpuZoneTotals totals_[static_cast<size_t>(CpuZone::kCount)];
  double cycles_per_sec_ = 0;
};

class CpuScope {
 public:
  explicit CpuScope(CpuZone zone);
  ~CpuScope();
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace obs
}  // namespace rover

#endif  // ROVER_SRC_OBS_CPU_SCOPE_H_
