// Discrete-event simulation core. A single EventLoop owns virtual time for
// one simulated world; every component (links, transports, QRPC engines,
// applications) schedules callbacks on it. Events at equal timestamps run
// in scheduling order, which keeps runs fully deterministic.
//
// Storage is one position-indexed binary min-heap ordered by (time, seq)
// (see docs/architecture.md "Indexed event heap"). Each pending event owns
// a slot that holds its callback and its current heap position, so Cancel
// removes the entry at once -- near timer or far, nothing lingers until its
// timestamp pops -- and pending_events() is exactly the heap size. An
// EventId names a slot plus the slot's generation: once the event runs or
// is cancelled the generation moves on, so a stale id misses even after
// the slot is reused.

#ifndef ROVER_SRC_SIM_EVENT_LOOP_H_
#define ROVER_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/util/time.h"

namespace rover {

// Opaque to callers; never equal to kInvalidEventId.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at absolute time `t` (clamped to now()).
  EventId ScheduleAt(TimePoint t, std::function<void()> fn);

  // Schedules `fn` to run `d` after now().
  EventId ScheduleAfter(Duration d, std::function<void()> fn);

  // Cancels a pending event and reclaims its entry. Returns false if it
  // already ran (or is running), was already cancelled, or is unknown.
  bool Cancel(EventId id);

  // Runs events until the queue is empty. Returns the number executed.
  size_t Run();

  // Runs events with timestamp <= t, then advances now() to t.
  size_t RunUntil(TimePoint t);

  // RunUntil(now() + d).
  size_t RunFor(Duration d);

  // Runs at most one pending event. Returns false if the queue was empty.
  bool Step();

  // Timestamp of the next pending event, if any. Does not advance time.
  std::optional<TimePoint> NextEventTime() const;

  size_t pending_events() const { return heap_.size(); }

  // Guard against runaway simulations: Run() aborts (returns) after this
  // many events. Default is 200M, far above any experiment in this repo.
  void set_event_limit(size_t limit) { event_limit_ = limit; }

 private:
  struct Entry {
    TimePoint when;
    uint64_t seq;  // FIFO among ties
    uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    uint32_t heap_pos = 0;
    uint32_t generation = 1;  // bumped on release; never 0
  };

  static bool Before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void Place(size_t pos, const Entry& e);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  // Removes heap_[pos], refills the hole, and frees its slot, returning
  // the callback (destroyed by the caller, after the loop is consistent).
  std::function<void()> Remove(size_t pos);
  // Pops and runs the next event if it is due at or before `limit`.
  bool RunNext(TimePoint limit);

  TimePoint now_ = TimePoint::Epoch();
  uint64_t next_seq_ = 1;
  size_t event_limit_ = 200'000'000;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace rover

#endif  // ROVER_SRC_SIM_EVENT_LOOP_H_
