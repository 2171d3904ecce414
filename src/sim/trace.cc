#include "src/sim/trace.h"

namespace rover {

void Trace::Record(const std::string& category, const std::string& detail) {
  entries_.push_back(Entry{loop_->now(), category, detail});
}

void Trace::Bump(const std::string& counter, double delta) { counters_[counter] += delta; }

double Trace::Counter(const std::string& counter) const {
  auto it = counters_.find(counter);
  return it == counters_.end() ? 0.0 : it->second;
}

size_t Trace::CountFor(const std::string& category) const {
  size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.category == category) {
      ++n;
    }
  }
  return n;
}

void Trace::Clear() {
  entries_.clear();
  counters_.clear();
}

}  // namespace rover
