// Unified telemetry registry: named, label-tagged counters, gauges, and latency
// histograms, hung off Machine and bridged from every instrumented layer (fault
// path, fusion engines, caches, DRAM, allocators, khugepaged).
//
// This is the simulator's *third clock* (see DESIGN.md, "Telemetry"): host-side
// observation only. Recording never touches simulated state, charges no latency,
// and draws no randomness, so simulated stats, traces, and timestamps are
// bit-identical however often the registry is harvested (metrics_parity_test).
//
// Recording is cheap: every handle is a stable pointer into the registry and
// its record operation is inline — no lookup, no allocation.

#ifndef VUSION_SRC_SIM_METRICS_H_
#define VUSION_SRC_SIM_METRICS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/json.h"

namespace vusion {

// Label set attached to a metric, e.g. {{"level", "llc"}}. Order is significant
// (it is part of the metric identity and of the rendered key).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

class MetricsRegistry;

// Monotonic event count. Set() exists for bridged counters whose source of truth
// is a component's own counter (the registry mirrors it on harvest).
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  void Set(std::uint64_t v) { value_ = v; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::uint64_t value_ = 0;
};

// Point-in-time level (free frames, pool occupancy, current n).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  double value_ = 0.0;
};

// Cumulative histogram over fixed upper-bound buckets (last bucket is +inf).
// Record() is a linear scan over a handful of bounds — no allocation ever.
class HistogramMetric {
 public:
  void Record(double x) {
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) {
      ++i;
    }
    ++buckets_[i];
    ++count_;
    sum_ += x;
    if (count_ == 1 || x < min_) {
      min_ = x;
    }
    if (count_ == 1 || x > max_) {
      max_ = x;
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(std::vector<double> bounds)
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Default exponential bucket bounds for simulated-nanosecond latencies.
std::vector<double> LatencyBucketsNs();

// An immutable copy of the registry at one instant, with delta arithmetic for
// phase-scoped measurement ("during the scan quantum" = after - before).
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricLabels labels;
    MetricKind kind = MetricKind::kCounter;
    // Counter: value in `count`. Gauge: value in `value`. Histogram: count/sum/
    // min/max plus per-bucket counts.
    std::uint64_t count = 0;
    double value = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;

    [[nodiscard]] std::string Key() const;  // "name{k=v,k2=v2}"
  };

  std::vector<Entry> entries;

  // Delta since `base`: counters and histogram counts subtract (entries missing
  // from `base` count from zero); gauges and histogram min/max keep the later
  // value. Entries only present in `base` are dropped.
  [[nodiscard]] MetricsSnapshot Since(const MetricsSnapshot& base) const;

  [[nodiscard]] const Entry* Find(const std::string& name,
                                  const MetricLabels& labels = {}) const;
  // Counter value (or histogram count) by name+labels; 0 when absent.
  [[nodiscard]] std::uint64_t CounterValue(const std::string& name,
                                           const MetricLabels& labels = {}) const;
  // Gauge value by name+labels; 0.0 when absent.
  [[nodiscard]] double GaugeValue(const std::string& name,
                                  const MetricLabels& labels = {}) const;

  // Serializes the entry array as compact JSON directly into `out`, reserving
  // the full output capacity up front and appending names/labels in place (no
  // per-entry node tree, no per-label string copies). This is the fleet rollup
  // path: hundreds of per-Machine registries render at artifact-write time.
  void AppendJsonTo(std::string& out) const;
  // Same serialization wrapped as a splice-in-place Json::Raw node.
  [[nodiscard]] Json ToJson() const;
  // Aligned "key  value" lines, one metric per line, zero-valued entries skipped.
  [[nodiscard]] std::string RenderTable() const;
};

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Savestates: serializes every registered metric in registration order.
  // Restore re-registers through the find-or-create path — existing handles
  // (the Machine's pre-registered fault counters) stay valid — and then
  // overwrites values, so a restored registry renders byte-identically.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r);

  // Find-or-create. Handles are stable for the registry's lifetime; calling again
  // with the same name+labels returns the same handle. Histogram bounds are fixed
  // by the first registration.
  Counter& GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {});
  HistogramMetric& GetHistogram(const std::string& name, const MetricLabels& labels = {},
                                std::vector<double> bounds = LatencyBucketsNs());

  [[nodiscard]] std::size_t size() const { return order_.size(); }

  [[nodiscard]] MetricsSnapshot Snapshot() const;
  [[nodiscard]] Json ToJson() const { return Snapshot().ToJson(); }
  [[nodiscard]] std::string RenderTable() const { return Snapshot().RenderTable(); }

 private:
  struct Slot {
    std::string name;
    MetricLabels labels;
    MetricKind kind;
    std::size_t index;  // into the kind-specific deque
  };

  static std::string SlotKey(const std::string& name, const MetricLabels& labels);

  std::unordered_map<std::string, std::size_t> lookup_;  // SlotKey -> order_ index
  std::vector<Slot> order_;                              // registration order
  std::deque<Counter> counters_;  // deque: stable addresses for handles
  std::deque<Gauge> gauges_;
  std::deque<HistogramMetric> histograms_;
};

}  // namespace vusion

#endif  // VUSION_SRC_SIM_METRICS_H_
