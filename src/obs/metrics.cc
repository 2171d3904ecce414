#include "src/obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <utility>

namespace rover {
namespace obs {
namespace {

std::string FmtDouble(double v) {
  char buf[64];
  // Shortest reasonable fixed representation; trims trailing zeros so the
  // text render stays diff-friendly.
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  std::string s = buf;
  while (s.size() > 1 && s.back() == '0') {
    s.pop_back();
  }
  if (!s.empty() && s.back() == '.') {
    s.pop_back();
  }
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    bounds_ = DefaultLatencyBoundsSeconds();
  }
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) {
    ++i;
  }
  ++buckets_[i];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

std::vector<double> DefaultLatencyBoundsSeconds() {
  std::vector<double> bounds;
  for (double b = 1e-3; b < 1100.0; b *= 2) {  // 1ms .. ~1024s
    bounds.push_back(b);
  }
  return bounds;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size() && i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

struct Registry::Entry {
  const FieldLayout& layout;
  char* base;
  std::vector<Histogram*> histograms;  // parallel to layout.histograms

  uint64_t& counter(const FieldLayout::Slot& slot) const {
    return *reinterpret_cast<uint64_t*>(base + slot.offset);
  }
  int64_t gauge(const FieldLayout::Slot& slot) const {
    return *reinterpret_cast<const int64_t*>(base + slot.offset);
  }
};

Registry::Binding Registry::BindLayout(const FieldLayout& layout, void* stats,
                                       std::initializer_list<Histogram*> histograms) {
  assert(histograms.size() == layout.histograms.size());
  Binding binding(new Entry{layout, static_cast<char*>(stats), histograms}, Unbind{this});
  Entry* entry = binding.get();
  for (const FieldLayout::Slot& slot : layout.slots) {
    if (auto kept = kept_counters_.find(slot.name); !slot.gauge && kept != kept_counters_.end()) {
      entry->counter(slot) += kept->second;
      kept_counters_.erase(kept);
    }
  }
  for (size_t i = 0; i < layout.histograms.size(); ++i) {
    if (auto kept = kept_histograms_.find(layout.histograms[i]); kept != kept_histograms_.end()) {
      entry->histograms[i]->Merge(kept->second);
      kept_histograms_.erase(kept);
    }
  }
  live_.push_back(entry);
  return binding;
}

void Registry::Unbind::operator()(Entry* entry) const {
  for (const FieldLayout::Slot& slot : entry->layout.slots) {
    if (!slot.gauge) {
      registry->kept_counters_[slot.name] += entry->counter(slot);
    }
  }
  for (size_t i = 0; i < entry->histograms.size(); ++i) {
    auto [kept, fresh] = registry->kept_histograms_.try_emplace(entry->layout.histograms[i],
                                                                *entry->histograms[i]);
    if (!fresh) {
      kept->second.Merge(*entry->histograms[i]);
    }
  }
  std::erase(registry->live_, entry);
  delete entry;
}

uint64_t Registry::CounterValue(const std::string& name) const {
  auto kept = kept_counters_.find(name);
  uint64_t value = kept == kept_counters_.end() ? 0 : kept->second;
  for (const Entry* e : live_) {
    for (const FieldLayout::Slot& slot : e->layout.slots) {
      value += !slot.gauge && slot.name == name ? e->counter(slot) : 0;
    }
  }
  return value;
}

int64_t Registry::GaugeValue(const std::string& name) const {
  int64_t value = 0;
  for (const Entry* e : live_) {
    for (const FieldLayout::Slot& slot : e->layout.slots) {
      value += slot.gauge && slot.name == name ? e->gauge(slot) : 0;
    }
  }
  return value;
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  for (const Entry* e : live_) {
    for (size_t i = 0; i < e->histograms.size(); ++i) {
      if (e->layout.histograms[i] == name) {
        return e->histograms[i];
      }
    }
  }
  auto kept = kept_histograms_.find(name);
  return kept == kept_histograms_.end() ? nullptr : &kept->second;
}

std::string Registry::Render(RenderFormat format) const {
  std::map<std::string, uint64_t> counters = kept_counters_;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms = kept_histograms_;
  for (const Entry* e : live_) {
    for (const FieldLayout::Slot& slot : e->layout.slots) {
      if (slot.gauge) {
        gauges[slot.name] += e->gauge(slot);
      } else {
        counters[slot.name] += e->counter(slot);
      }
    }
    for (size_t i = 0; i < e->histograms.size(); ++i) {
      auto [it, fresh] = histograms.try_emplace(e->layout.histograms[i], *e->histograms[i]);
      if (!fresh) {
        it->second.Merge(*e->histograms[i]);
      }
    }
  }

  std::ostringstream out;
  if (format == RenderFormat::kText) {
    for (const auto& [name, value] : counters) {
      out << name << " " << value << "\n";
    }
    for (const auto& [name, value] : gauges) {
      out << name << " " << value << "\n";
    }
    for (const auto& [name, h] : histograms) {
      out << name << " count=" << h.count() << " sum=" << FmtDouble(h.sum())
          << " max=" << FmtDouble(h.max()) << "\n";
    }
    return out.str();
  }

  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":{\"count\":" << h.count()
        << ",\"sum\":" << FmtDouble(h.sum()) << ",\"max\":" << FmtDouble(h.max())
        << ",\"buckets\":[";
    const auto& counts = h.bucket_counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) {
        out << ",";
      }
      out << "{\"le\":";
      if (i < h.bounds().size()) {
        out << FmtDouble(h.bounds()[i]);
      } else {
        out << "\"inf\"";
      }
      out << ",\"count\":" << counts[i] << "}";
    }
    out << "]}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace obs
}  // namespace rover
