#include "src/sim/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"

namespace rover {

LinkProfile LinkProfile::Ethernet10() {
  LinkProfile p;
  p.name = "ethernet-10Mb";
  p.bandwidth_bps = 10e6;
  p.latency = Duration::Micros(250);
  p.mtu = 1460;
  p.per_packet_overhead = 40;
  return p;
}

LinkProfile LinkProfile::WaveLan2() {
  LinkProfile p;
  p.name = "wavelan-2Mb";
  p.bandwidth_bps = 2e6;
  p.latency = Duration::Millis(2);
  p.mtu = 1400;
  p.per_packet_overhead = 50;  // 802-style framing + IP/TCP
  return p;
}

LinkProfile LinkProfile::Cslip144() {
  LinkProfile p;
  p.name = "cslip-14.4Kb";
  p.bandwidth_bps = 14.4e3;
  p.latency = Duration::Millis(50);  // modem + serial path
  p.mtu = 296;                       // classic SLIP MTU for interactive latency
  p.per_packet_overhead = 5;         // Van Jacobson compressed TCP/IP header
  return p;
}

LinkProfile LinkProfile::Cslip24() {
  LinkProfile p;
  p.name = "cslip-2.4Kb";
  p.bandwidth_bps = 2.4e3;
  p.latency = Duration::Millis(150);
  p.mtu = 296;
  p.per_packet_overhead = 5;
  return p;
}

std::vector<LinkProfile> LinkProfile::PaperNetworks() {
  return {Ethernet10(), WaveLan2(), Cslip144(), Cslip24()};
}

Link::Link(EventLoop* loop, std::string host_a, std::string host_b, LinkProfile profile,
           std::unique_ptr<ConnectivitySchedule> schedule, uint64_t loss_seed)
    : loop_(loop),
      host_a_(std::move(host_a)),
      host_b_(std::move(host_b)),
      profile_(std::move(profile)),
      schedule_(std::move(schedule)),
      loss_rng_(loss_seed) {
  if (schedule_ == nullptr) {
    schedule_ = std::make_unique<ConstantConnectivity>(true);
  }
}

std::string Link::PeerOf(const std::string& host) const {
  if (host == host_a_) {
    return host_b_;
  }
  if (host == host_b_) {
    return host_a_;
  }
  return "";
}

bool Link::IsUp() const { return !forced_down_ && schedule_->IsUp(loop_->now()); }

void Link::ForceDown() {
  if (forced_down_) {
    return;
  }
  forced_down_ = true;
  for (const auto& observer : state_observers_) {
    observer();
  }
}

void Link::AddStateObserver(std::function<void()> observer) {
  state_observers_.push_back(std::move(observer));
}

TimePoint Link::NextUpTime() const {
  if (forced_down_) {
    return TimePoint::FromMicros(INT64_MAX);
  }
  return schedule_->NextUpTime(loop_->now());
}

void Link::SetFrameHandler(const std::string& receiving_host, FrameHandler handler) {
  // Direction 0 carries a->b traffic, so host_b_ receives it.
  if (receiving_host == host_b_) {
    handlers_[0] = std::move(handler);
  } else if (receiving_host == host_a_) {
    handlers_[1] = std::move(handler);
  }
}

int Link::DirectionFrom(const std::string& host) const {
  if (host == host_a_) {
    return 0;
  }
  if (host == host_b_) {
    return 1;
  }
  return -1;
}

size_t Link::PacketCount(size_t payload_bytes) const {
  if (payload_bytes == 0) {
    return 1;  // a bare header still crosses the wire (e.g. an ACK)
  }
  return (payload_bytes + profile_.mtu - 1) / profile_.mtu;
}

size_t Link::WireBytes(size_t payload_bytes) const {
  return payload_bytes + PacketCount(payload_bytes) * profile_.per_packet_overhead;
}

Duration Link::TransferTime(size_t payload_bytes) const {
  const double bits = static_cast<double>(WireBytes(payload_bytes)) * 8.0;
  return Duration::Seconds(bits / profile_.bandwidth_bps);
}

void Link::SendFrame(const std::string& from_host, Bytes frame, DeliveryCallback done) {
  const int dir = DirectionFrom(from_host);
  if (dir < 0) {
    if (done) {
      done(InvalidArgumentError("host " + from_host + " is not an endpoint of this link"));
    }
    return;
  }
  const TimePoint now = loop_->now();
  if (forced_down_ || !schedule_->IsUp(now)) {
    ++stats_.frames_rejected;
    if (done) {
      // Fail asynchronously so callers never observe re-entrant completion.
      loop_->ScheduleAfter(Duration::Zero(),
                           [done = std::move(done)] { done(UnavailableError("link down")); });
    }
    return;
  }

  TimePoint start = std::max(now, busy_until_[dir]);
  // Dial-up connect cost after a long idle gap.
  if (!profile_.connect_cost.is_zero() &&
      start - last_activity_ > profile_.idle_threshold) {
    start += profile_.connect_cost;
  }

  ++stats_.frames_sent;
  stats_.wire_bytes += WireBytes(frame.size());

  // Walk the connectivity schedule, transmitting only while the link is up.
  // Bytes sent before a drop are preserved (the reliable transport under us
  // resumes rather than restarting), so a frame larger than any single up
  // window still makes progress. If the schedule never comes up again while
  // bytes remain, the frame is lost.
  double remaining_bits = static_cast<double>(WireBytes(frame.size())) * 8.0;
  TimePoint t = start;
  constexpr TimePoint kNever = TimePoint::FromMicros(INT64_MAX);
  while (remaining_bits > 0.0) {
    if (!schedule_->IsUp(t)) {
      const TimePoint up = schedule_->NextUpTime(t);
      if (up == kNever) {
        ++stats_.frames_lost;
        busy_until_[dir] = t;
        loop_->ScheduleAt(t, [done = std::move(done)] {
          if (done) {
            done(UnavailableError("link down with no future connectivity"));
          }
        });
        return;
      }
      t = up;
      continue;
    }
    const TimePoint window_end = schedule_->NextTransition(t);
    const Duration needed = Duration::Seconds(remaining_bits / profile_.bandwidth_bps);
    if (window_end == kNever || t + needed <= window_end) {
      t += needed;
      remaining_bits = 0.0;
    } else {
      remaining_bits -= (window_end - t).seconds() * profile_.bandwidth_bps;
      t = window_end;
    }
  }
  const TimePoint tx_done = t;
  const TimePoint arrival = tx_done + profile_.latency;
  busy_until_[dir] = tx_done;
  last_activity_ = tx_done;

  // Random loss: any lost packet loses the frame (the reliable channel above
  // retransmits whole messages).
  if (profile_.loss_prob > 0.0) {
    const double p_ok = std::pow(1.0 - profile_.loss_prob,
                                 static_cast<double>(PacketCount(frame.size())));
    if (!loss_rng_.NextBool(p_ok)) {
      ++stats_.frames_lost;
      // The sender learns about the loss one RTT-ish later (retransmit timer).
      loop_->ScheduleAt(arrival + profile_.latency, [done = std::move(done)] {
        if (done) {
          done(DataLossError("frame lost"));
        }
      });
      return;
    }
  }

  // Bit corruption: the receiver sees a damaged frame (its decoder drops
  // it); the sender's reliability layer finds out a round trip later.
  if (profile_.corrupt_prob > 0.0 && loss_rng_.NextBool(profile_.corrupt_prob) &&
      !frame.empty()) {
    ++stats_.frames_corrupted;
    Bytes damaged = frame;
    damaged[damaged.size() / 2] ^= 0xa5;
    auto damaged_ptr = std::make_shared<Bytes>(std::move(damaged));
    loop_->ScheduleAt(arrival, [this, dir, damaged_ptr] {
      if (handlers_[dir]) {
        handlers_[dir](std::move(*damaged_ptr), Endpoint(dir));
      }
    });
    loop_->ScheduleAt(arrival + profile_.latency, [done = std::move(done)] {
      if (done) {
        done(DataLossError("frame corrupted"));
      }
    });
    return;
  }

  // Reordering: hold the frame back so frames transmitted after it arrive
  // first. The sender's completion is delayed with the frame -- from its
  // point of view the link was just slow.
  TimePoint deliver_at = arrival;
  if (profile_.reorder_prob > 0.0 && loss_rng_.NextBool(profile_.reorder_prob)) {
    ++stats_.frames_reordered;
    deliver_at += profile_.reorder_delay;
  }

  // Duplication: the receiver sees the frame twice (a stale retransmission
  // still in the network); delivery/payload counters count it once and the
  // sender sees a single OK.
  const bool duplicate =
      profile_.duplicate_prob > 0.0 && loss_rng_.NextBool(profile_.duplicate_prob);

  const size_t payload = frame.size();
  auto frame_ptr = std::make_shared<Bytes>(std::move(frame));
  // The sender's name is the link's own endpoint string: the event copies
  // no string, and it owns the completion callback outright.
  loop_->ScheduleAt(deliver_at, [this, dir, frame_ptr, done = std::move(done), payload,
                                 duplicate] {
    ++stats_.frames_delivered;
    stats_.payload_bytes += payload;
    if (handlers_[dir]) {
      // A pending duplicate delivery still needs the bytes; otherwise hand
      // the storage to the receiver outright.
      handlers_[dir](duplicate ? *frame_ptr : std::move(*frame_ptr), Endpoint(dir));
    }
    if (done) {
      done(Status::Ok());
    }
  });
  if (duplicate) {
    ++stats_.frames_duplicated;
    loop_->ScheduleAt(deliver_at + profile_.latency, [this, dir, frame_ptr] {
      if (handlers_[dir]) {
        handlers_[dir](std::move(*frame_ptr), Endpoint(dir));
      }
    });
  }
}

}  // namespace rover
