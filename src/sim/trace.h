// Trace recorder: a timestamped journal plus named counters. Tests assert
// on event ordering; benchmarks aggregate counters (bytes on wire, QRPCs
// queued, cache hits) into table rows.

#ifndef ROVER_SRC_SIM_TRACE_H_
#define ROVER_SRC_SIM_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/util/time.h"

namespace rover {

class Trace {
 public:
  struct Entry {
    TimePoint when;
    std::string category;
    std::string detail;
  };

  explicit Trace(EventLoop* loop) : loop_(loop) {}

  void Record(const std::string& category, const std::string& detail);

  void Bump(const std::string& counter, double delta = 1.0);

  double Counter(const std::string& counter) const;

  const std::vector<Entry>& entries() const { return entries_; }

  size_t CountFor(const std::string& category) const;

  void Clear();

 private:
  EventLoop* loop_;
  std::vector<Entry> entries_;
  std::map<std::string, double> counters_;
};

}  // namespace rover

#endif  // ROVER_SRC_SIM_TRACE_H_
