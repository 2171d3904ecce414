// Metrics (observability layer). Each component counts into its own plain
// stats struct (`++stats_.calls`), the only storage for its counters, and
// hands it out through `const XStats& stats()`. A Registry holds no values:
// it is a read-only index over the structs bound into it, so Render(),
// CounterValue(), GaugeValue() and FindHistogram() read the live fields.
//
// A struct is bound through its Schema, the one list that names each
// exported field (uint64_t counters, int64_t gauges) and the histograms the
// component keeps beside it:
//
//   const obs::Schema<QrpcClientStats> kMetrics(
//       "qrpc_client", {{"calls", &QrpcClientStats::calls}, ...}, {"rpc_seconds"});
//   metrics_binding_ = registry->Bind(kMetrics, &stats_, {&rpc_seconds_});
//
// Names are dotted lowercase paths, "<subsystem>.<metric>"; each node owns
// one registry. When a Binding dies (a simulated crash destroys the
// component, or the node is killed) the registry keeps its final counter
// and histogram values and adds them into the next struct bound under the
// same names, so a rebuilt component resumes its predecessor's totals with
// no carry code of its own. Gauges describe the live process and are not
// kept. Render() is deterministic text (counters, gauges, histograms, each
// sorted by name) or JSON.

#ifndef ROVER_SRC_OBS_METRICS_H_
#define ROVER_SRC_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rover {
namespace obs {

// Fixed-bucket histogram. Bounds are inclusive upper edges; observations
// above the last bound land in an implicit overflow bucket, so
// bucket_counts().size() == bounds().size() + 1.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = {});

  void Observe(double value);
  // Adds `other`'s observations (same bounds) into this histogram.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& bucket_counts() const { return buckets_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

// Bucket edges suited to simulated RPC/flush latencies: 1ms .. ~17min,
// exponential base 2.
std::vector<double> DefaultLatencyBoundsSeconds();

enum class RenderFormat { kText, kJson };

// Type-erased field list, shared by every binding of one struct type.
struct FieldLayout {
  struct Slot {
    std::string name;  // full metric name, "<prefix>.<field>"
    bool gauge = false;
    size_t offset = 0;  // byte offset of the field inside the struct
  };
  std::vector<Slot> slots;
  std::vector<std::string> histograms;  // full names, in Bind() order
};

// The field list of stats struct S under "<prefix>.". Build one per struct
// type, at namespace scope, and bind through it.
template <typename S>
class Schema {
 public:
  struct Field {
    Field(const char* field, uint64_t S::*counter) : name(field), offset(OffsetOf(counter)) {}
    Field(const char* field, int64_t S::*value)
        : name(field), gauge(true), offset(OffsetOf(value)) {}

    const char* name;
    bool gauge = false;
    size_t offset;
  };

  Schema(const std::string& prefix, std::initializer_list<Field> fields,
         std::initializer_list<const char*> histograms = {}) {
    for (const Field& f : fields) {
      layout_.slots.push_back({prefix + "." + f.name, f.gauge, f.offset});
    }
    for (const char* h : histograms) {
      layout_.histograms.push_back(prefix + "." + h);
    }
  }

  const FieldLayout& layout() const { return layout_; }

 private:
  template <typename T>
  static size_t OffsetOf(T S::*member) {
    static const S probe{};
    return static_cast<size_t>(reinterpret_cast<const char*>(&(probe.*member)) -
                               reinterpret_cast<const char*>(&probe));
  }

  FieldLayout layout_;
};

class Registry {
 public:
  struct Entry;  // one bound struct
  struct Unbind {
    void operator()(Entry* entry) const;
    Registry* registry = nullptr;
  };
  // Keeps one struct bound; destroying (or reassigning) it unbinds and
  // folds the final counts into the registry.
  using Binding = std::unique_ptr<Entry, Unbind>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Indexes `stats` (and the histograms `schema` names, in order) until the
  // returned handle dies. Counts kept from an earlier binding under the
  // same names are added into `stats` and `histograms` first. The registry
  // must outlive the handle.
  template <typename S>
  [[nodiscard]] Binding Bind(const Schema<S>& schema, S* stats,
                             std::initializer_list<Histogram*> histograms = {}) {
    return BindLayout(schema.layout(), stats, histograms);
  }

  // Live reads by full name; 0 / nullptr when no such metric exists.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Deterministic snapshot of every metric (see the file comment).
  std::string Render(RenderFormat format = RenderFormat::kText) const;

 private:
  Binding BindLayout(const FieldLayout& layout, void* stats,
                     std::initializer_list<Histogram*> histograms);

  std::vector<const Entry*> live_;
  // Final values of unbound structs, waiting for the next binding.
  std::map<std::string, uint64_t> kept_counters_;
  std::map<std::string, Histogram> kept_histograms_;
};

using Binding = Registry::Binding;

}  // namespace obs
}  // namespace rover

#endif  // ROVER_SRC_OBS_METRICS_H_
