#include "src/qrpc/stable_device.h"

#include <algorithm>

namespace rover {
namespace {

const obs::Schema<StableDeviceStats> kMetrics(
    "stable_device", {{"writes_ok", &StableDeviceStats::writes_ok},
                      {"transient_errors", &StableDeviceStats::transient_errors},
                      {"no_space_errors", &StableDeviceStats::no_space_errors},
                      {"sync_failures", &StableDeviceStats::sync_failures},
                      {"bitrot_injected", &StableDeviceStats::bitrot_injected},
                      {"repairs", &StableDeviceStats::repairs}});

}  // namespace

StableDevice::StableDevice(DiskFaultOptions options)
    : options_(options),
      rng_(options.seed ^ 0x5d3ab1ed0d0e51ceULL),
      capacity_bytes_(options.capacity_bytes) {}

void StableDevice::BindMetrics(obs::Registry* registry) {
  metrics_binding_ = registry->Bind(kMetrics, &stats_);
}

bool StableDevice::HasSpaceFor(size_t bytes) const {
  if (capacity_bytes_ == 0) {
    return true;
  }
  return used_bytes_ + bytes <= capacity_bytes_;
}

StableDevice::WriteOutcome StableDevice::Write(size_t bytes) {
  if (sync_failed_) {
    ++stats_.sync_failures;
    return WriteOutcome::kSyncFailed;
  }
  ++writes_attempted_;
  if (options_.fail_sync_after_writes > 0 &&
      writes_attempted_ >= options_.fail_sync_after_writes) {
    sync_failed_ = true;
    ++stats_.sync_failures;
    return WriteOutcome::kSyncFailed;
  }
  if (forced_transient_errors_ > 0) {
    --forced_transient_errors_;
    ++stats_.transient_errors;
    return WriteOutcome::kTransientError;
  }
  if (options_.transient_write_error_prob > 0 &&
      rng_.NextBool(options_.transient_write_error_prob)) {
    ++stats_.transient_errors;
    return WriteOutcome::kTransientError;
  }
  if (!HasSpaceFor(bytes)) {
    ++stats_.no_space_errors;
    return WriteOutcome::kNoSpace;
  }
  used_bytes_ += bytes;
  ++stats_.writes_ok;
  return WriteOutcome::kOk;
}

void StableDevice::Release(size_t bytes) {
  used_bytes_ -= std::min(used_bytes_, bytes);
}

void StableDevice::Charge(size_t bytes) { used_bytes_ += bytes; }

bool StableDevice::DrawBitRot() {
  if (options_.bitrot_prob <= 0) {
    return false;
  }
  if (rng_.NextBool(options_.bitrot_prob)) {
    ++stats_.bitrot_injected;
    return true;
  }
  return false;
}

void StableDevice::InjectTransientWriteErrors(size_t n) {
  forced_transient_errors_ += n;
}

void StableDevice::SetCapacityBytes(size_t bytes) { capacity_bytes_ = bytes; }

void StableDevice::ClampCapacityToUsed(size_t slack) {
  capacity_bytes_ = used_bytes_ + slack;
}

void StableDevice::FailSyncPermanently() { sync_failed_ = true; }

void StableDevice::Repair() {
  sync_failed_ = false;
  forced_transient_errors_ = 0;
  writes_attempted_ = 0;
  options_.transient_write_error_prob = 0;
  options_.bitrot_prob = 0;
  options_.fail_sync_after_writes = 0;
  ++stats_.repairs;
}

}  // namespace rover
