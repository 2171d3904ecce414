#include "src/sim/event_loop.h"

#include <cstdint>
#include <utility>

#include "src/obs/cpu_scope.h"

namespace rover {

EventId EventLoop::ScheduleAt(TimePoint t, std::function<void()> fn) {
  if (t < now_) {
    t = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, slot});
  SiftUp(heap_.size() - 1);
  return (static_cast<uint64_t>(slots_[slot].generation) << 32) | slot;
}

EventId EventLoop::ScheduleAfter(Duration d, std::function<void()> fn) {
  return ScheduleAt(now_ + d, std::move(fn));
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != id >> 32) {
    return false;  // kInvalidEventId, already ran, cancelled, or unknown
  }
  Remove(slots_[slot].heap_pos);  // the dropped callback dies after Remove
  return true;
}

void EventLoop::Place(size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
}

void EventLoop::SiftUp(size_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void EventLoop::SiftDown(size_t pos) {
  const Entry e = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], e)) {
      break;
    }
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, e);
}

std::function<void()> EventLoop::Remove(size_t pos) {
  Slot& s = slots_[heap_[pos].slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  if (++s.generation == 0) {
    s.generation = 1;
  }
  free_slots_.push_back(heap_[pos].slot);

  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Place(pos, last);
    if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }
  return fn;
}

bool EventLoop::RunNext(TimePoint limit) {
  std::function<void()> fn;
  {
    obs::CpuScope cpu(obs::CpuZone::kEventLoopPop);
    if (heap_.empty() || heap_.front().when > limit) {
      return false;
    }
    now_ = heap_.front().when;
    fn = Remove(0);
  }
  fn();
  return true;
}

size_t EventLoop::Run() {
  size_t executed = 0;
  while (executed < event_limit_ && RunNext(TimePoint::FromMicros(INT64_MAX))) {
    ++executed;
  }
  return executed;
}

size_t EventLoop::RunUntil(TimePoint t) {
  size_t executed = 0;
  while (executed < event_limit_ && RunNext(t)) {
    ++executed;
  }
  if (now_ < t) {
    now_ = t;
  }
  return executed;
}

size_t EventLoop::RunFor(Duration d) { return RunUntil(now_ + d); }

bool EventLoop::Step() { return RunNext(TimePoint::FromMicros(INT64_MAX)); }

std::optional<TimePoint> EventLoop::NextEventTime() const {
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().when;
}

}  // namespace rover
