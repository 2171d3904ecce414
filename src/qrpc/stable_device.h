// Simulated stable-storage device with an injectable fault model. StableLog
// (and through it the server WAL) routes every device write through this
// abstraction so storage failures become first-class, schedulable events:
//
//   - transient write errors (EIO-style): the write burns its device time but
//     the sync fails; the caller may retry.
//   - capacity exhaustion (ENOSPC-style): writes beyond `capacity_bytes` are
//     refused until space is released (truncation/compaction) or the limit is
//     lifted.
//   - latent bit rot: a successful write may silently corrupt a byte of the
//     record it just stored; the damage only surfaces later, at CRC-checking
//     read or recovery time.
//   - permanent sync failure: after `fail_sync_after_writes` writes (or an
//     explicit FailSyncPermanently()) every sync fails forever. The policy
//     layer treats this as fail-stop -- a device that lies about durability
//     must never back an acknowledgement.
//
// Faults are drawn from a seeded Rng, so a schedule replays deterministically;
// the Inject*/Clamp* methods let fault plans and tests force specific events
// at specific times instead of (or on top of) probabilistic draws.

#ifndef ROVER_SRC_QRPC_STABLE_DEVICE_H_
#define ROVER_SRC_QRPC_STABLE_DEVICE_H_

#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace rover {

struct DiskFaultOptions {
  uint64_t seed = 0;
  // Probability that a device write fails with a transient error.
  double transient_write_error_prob = 0.0;
  // Usable capacity in bytes; 0 means unbounded.
  size_t capacity_bytes = 0;
  // Probability that a successful write leaves latent corruption in the
  // newest record it stored.
  double bitrot_prob = 0.0;
  // After this many write attempts, sync fails permanently. 0 = never.
  uint64_t fail_sync_after_writes = 0;
};

struct StableDeviceStats {
  uint64_t writes_ok = 0;
  uint64_t transient_errors = 0;
  uint64_t no_space_errors = 0;
  uint64_t sync_failures = 0;
  uint64_t bitrot_injected = 0;
  uint64_t repairs = 0;
};

class StableDevice {
 public:
  enum class WriteOutcome {
    kOk,
    kTransientError,  // retryable
    kNoSpace,         // refused: over capacity
    kSyncFailed,      // permanent: device can no longer guarantee durability
  };

  explicit StableDevice(DiskFaultOptions options = {});

  // True when `bytes` more can be stored within the capacity limit.
  bool HasSpaceFor(size_t bytes) const;

  // One device write of `bytes`. On kOk the bytes are charged against
  // capacity; every other outcome leaves used_bytes() unchanged.
  WriteOutcome Write(size_t bytes);

  // Returns previously written bytes to the free pool (truncation,
  // compaction, or quarantine of a stored record).
  void Release(size_t bytes);

  // Accounts bytes that reached the platter outside a completed Write()
  // (a torn record surviving a crash mid-write).
  void Charge(size_t bytes);

  // Drawn once per record a successful write stored; true means the caller
  // should plant latent corruption in that record.
  bool DrawBitRot();

  // --- fault injection (fault plans / tests) ---

  // The next `n` writes fail with a transient error regardless of the
  // probabilistic schedule.
  void InjectTransientWriteErrors(size_t n);

  // Sets the capacity limit (0 = unbounded). Lowering it below used_bytes()
  // does not destroy data; it only refuses further writes.
  void SetCapacityBytes(size_t bytes);

  // Clamps capacity to used_bytes() + slack: the disk is now (nearly) full.
  void ClampCapacityToUsed(size_t slack);

  void FailSyncPermanently();

  // Models the operator swapping in a healthy replacement device: clears the
  // sync failure, pending injected errors, and the probabilistic fault
  // schedule. Stored bytes and the capacity limit survive (the log contents
  // were salvaged onto the new device).
  void Repair();

  bool sync_failed() const { return sync_failed_; }
  size_t used_bytes() const { return used_bytes_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  const StableDeviceStats& stats() const { return stats_; }
  // Exposes stats() through `registry` as "stable_device.*".
  void BindMetrics(obs::Registry* registry);

 private:
  DiskFaultOptions options_;
  Rng rng_;
  size_t used_bytes_ = 0;
  size_t capacity_bytes_ = 0;
  size_t forced_transient_errors_ = 0;
  bool sync_failed_ = false;
  uint64_t writes_attempted_ = 0;
  StableDeviceStats stats_;
  obs::Binding metrics_binding_;
};

}  // namespace rover

#endif  // ROVER_SRC_QRPC_STABLE_DEVICE_H_
