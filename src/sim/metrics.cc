#include "src/sim/metrics.h"

#include <algorithm>
#include <cstdio>

namespace vusion {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::vector<double> LatencyBucketsNs() {
  // 100ns .. ~100ms, x4 per bucket: covers a single cache hit through a full
  // CoW copy with TLB shootdowns, in 11 buckets.
  std::vector<double> bounds;
  for (double b = 100.0; b <= 110.0e6; b *= 4.0) {
    bounds.push_back(b);
  }
  return bounds;
}

std::string MetricsSnapshot::Entry::Key() const {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) {
        key += ',';
      }
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

MetricsSnapshot MetricsSnapshot::Since(const MetricsSnapshot& base) const {
  MetricsSnapshot delta;
  delta.entries.reserve(entries.size());
  for (const Entry& after : entries) {
    const Entry* before = base.Find(after.name, after.labels);
    Entry e = after;
    if (before != nullptr && before->kind == after.kind) {
      switch (after.kind) {
        case MetricKind::kCounter:
          e.count = after.count >= before->count ? after.count - before->count : 0;
          break;
        case MetricKind::kGauge:
          break;  // gauges keep the later value
        case MetricKind::kHistogram:
          e.count = after.count >= before->count ? after.count - before->count : 0;
          e.value = after.value - before->value;  // sum delta
          for (std::size_t i = 0; i < e.buckets.size() && i < before->buckets.size(); ++i) {
            e.buckets[i] = after.buckets[i] >= before->buckets[i]
                               ? after.buckets[i] - before->buckets[i]
                               : 0;
          }
          // min/max keep the later (cumulative) value: not recoverable per-phase.
          break;
      }
    }
    delta.entries.push_back(std::move(e));
  }
  return delta;
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(const std::string& name,
                                                    const MetricLabels& labels) const {
  for (const Entry& e : entries) {
    if (e.name == name && e.labels == labels) {
      return &e;
    }
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::CounterValue(const std::string& name,
                                            const MetricLabels& labels) const {
  const Entry* e = Find(name, labels);
  return e != nullptr ? e->count : 0;
}

double MetricsSnapshot::GaugeValue(const std::string& name, const MetricLabels& labels) const {
  const Entry* e = Find(name, labels);
  return e != nullptr ? e->value : 0.0;
}

void MetricsSnapshot::AppendJsonTo(std::string& out) const {
  // One reservation covers the whole array: entry framing plus names, labels,
  // and numeric tokens (~20 chars each). Slight overestimates are fine; what
  // the fleet rollup cannot afford is a reallocation-and-copy cascade across
  // hundreds of appended registries.
  std::size_t estimate = out.size() + 4;
  for (const Entry& e : entries) {
    estimate += e.name.size() + 48;
    for (const auto& [k, v] : e.labels) {
      estimate += k.size() + v.size() + 8;
    }
    if (e.kind == MetricKind::kHistogram) {
      estimate += 64 + (e.bounds.size() + e.buckets.size()) * 20;
    }
  }
  out.reserve(estimate);

  const auto append_u64 = [&out](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out += buf;
  };
  out += '[';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i != 0) {
      out += ", ";
    }
    out += "{\"name\": ";
    Json::AppendEscaped(out, e.name);
    if (!e.labels.empty()) {
      out += ", \"labels\": {";
      for (std::size_t l = 0; l < e.labels.size(); ++l) {
        if (l != 0) {
          out += ", ";
        }
        Json::AppendEscaped(out, e.labels[l].first);
        out += ": ";
        Json::AppendEscaped(out, e.labels[l].second);
      }
      out += '}';
    }
    out += ", \"kind\": \"";
    out += MetricKindName(e.kind);
    out += '"';
    switch (e.kind) {
      case MetricKind::kCounter:
        out += ", \"value\": ";
        append_u64(e.count);
        break;
      case MetricKind::kGauge:
        out += ", \"value\": ";
        Json::AppendDouble(out, e.value);
        break;
      case MetricKind::kHistogram: {
        out += ", \"count\": ";
        append_u64(e.count);
        out += ", \"sum\": ";
        Json::AppendDouble(out, e.value);
        if (e.count > 0) {
          out += ", \"min\": ";
          Json::AppendDouble(out, e.min);
          out += ", \"max\": ";
          Json::AppendDouble(out, e.max);
        }
        out += ", \"bounds\": [";
        for (std::size_t b = 0; b < e.bounds.size(); ++b) {
          if (b != 0) {
            out += ", ";
          }
          Json::AppendDouble(out, e.bounds[b]);
        }
        out += "], \"buckets\": [";
        for (std::size_t b = 0; b < e.buckets.size(); ++b) {
          if (b != 0) {
            out += ", ";
          }
          append_u64(e.buckets[b]);
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += ']';
}

Json MetricsSnapshot::ToJson() const {
  std::string out;
  AppendJsonTo(out);
  return Json::Raw(std::move(out));
}

std::string MetricsSnapshot::RenderTable() const {
  std::size_t width = 0;
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(entries.size());
  for (const Entry& e : entries) {
    char buf[128];
    std::string value;
    switch (e.kind) {
      case MetricKind::kCounter:
        if (e.count == 0) {
          continue;
        }
        std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(e.count));
        value = buf;
        break;
      case MetricKind::kGauge:
        if (e.value == 0.0) {
          continue;
        }
        std::snprintf(buf, sizeof(buf), "%.6g", e.value);
        value = buf;
        break;
      case MetricKind::kHistogram:
        if (e.count == 0) {
          continue;
        }
        std::snprintf(buf, sizeof(buf), "count=%llu mean=%.6g min=%.6g max=%.6g",
                      static_cast<unsigned long long>(e.count),
                      e.value / static_cast<double>(e.count), e.min, e.max);
        value = buf;
        break;
    }
    std::string key = e.Key();
    width = std::max(width, key.size());
    rows.emplace_back(std::move(key), std::move(value));
  }
  std::string out;
  for (const auto& [key, value] : rows) {
    out += key;
    out.append(width - key.size() + 2, ' ');
    out += value;
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::SlotKey(const std::string& name, const MetricLabels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, const MetricLabels& labels) {
  const std::string key = SlotKey(name, labels);
  if (const auto it = lookup_.find(key); it != lookup_.end()) {
    return counters_[order_[it->second].index];
  }
  lookup_.emplace(key, order_.size());
  order_.push_back({name, labels, MetricKind::kCounter, counters_.size()});
  counters_.push_back(Counter());
  return counters_.back();
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const MetricLabels& labels) {
  const std::string key = SlotKey(name, labels);
  if (const auto it = lookup_.find(key); it != lookup_.end()) {
    return gauges_[order_[it->second].index];
  }
  lookup_.emplace(key, order_.size());
  order_.push_back({name, labels, MetricKind::kGauge, gauges_.size()});
  gauges_.push_back(Gauge());
  return gauges_.back();
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name, const MetricLabels& labels,
                                               std::vector<double> bounds) {
  const std::string key = SlotKey(name, labels);
  if (const auto it = lookup_.find(key); it != lookup_.end()) {
    return histograms_[order_[it->second].index];
  }
  lookup_.emplace(key, order_.size());
  order_.push_back({name, labels, MetricKind::kHistogram, histograms_.size()});
  histograms_.push_back(HistogramMetric(std::move(bounds)));
  return histograms_.back();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(order_.size());
  for (const Slot& slot : order_) {
    MetricsSnapshot::Entry e;
    e.name = slot.name;
    e.labels = slot.labels;
    e.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        e.count = counters_[slot.index].value();
        break;
      case MetricKind::kGauge:
        e.value = gauges_[slot.index].value();
        break;
      case MetricKind::kHistogram: {
        const HistogramMetric& h = histograms_[slot.index];
        e.count = h.count();
        e.value = h.sum();
        e.min = h.min();
        e.max = h.max();
        e.bounds = h.bounds();
        e.buckets = h.buckets();
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void MetricsRegistry::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(order_.size());
  for (const Slot& slot : order_) {
    w.Str(slot.name);
    w.U32(static_cast<std::uint32_t>(slot.labels.size()));
    for (const auto& [key, value] : slot.labels) {
      w.Str(key);
      w.Str(value);
    }
    w.U8(static_cast<std::uint8_t>(slot.kind));
    switch (slot.kind) {
      case MetricKind::kCounter:
        w.U64(counters_[slot.index].value_);
        break;
      case MetricKind::kGauge:
        w.F64(gauges_[slot.index].value_);
        break;
      case MetricKind::kHistogram: {
        const HistogramMetric& h = histograms_[slot.index];
        w.U64(h.bounds_.size());
        for (const double bound : h.bounds_) {
          w.F64(bound);
        }
        for (const std::uint64_t bucket : h.buckets_) {
          w.U64(bucket);
        }
        w.U64(h.count_);
        w.F64(h.sum_);
        w.F64(h.min_);
        w.F64(h.max_);
        break;
      }
    }
  }
}

void MetricsRegistry::RestoreState(snapshot::SnapshotReader& r) {
  // Re-register through the find-or-create path so pre-existing handles (the
  // Machine's constructor-registered fault metrics) stay valid, then overwrite
  // values directly.
  const std::uint64_t n = r.Count(8);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.Str();
    const std::uint32_t label_count = r.U32();
    MetricLabels labels;
    labels.reserve(label_count);
    for (std::uint32_t l = 0; l < label_count; ++l) {
      std::string key = r.Str();
      std::string value = r.Str();
      labels.emplace_back(std::move(key), std::move(value));
    }
    const std::uint8_t kind = r.U8();
    switch (static_cast<MetricKind>(kind)) {
      case MetricKind::kCounter:
        GetCounter(name, labels).value_ = r.U64();
        break;
      case MetricKind::kGauge:
        GetGauge(name, labels).value_ = r.F64();
        break;
      case MetricKind::kHistogram: {
        const std::uint64_t bound_count = r.Count(8);
        std::vector<double> bounds;
        bounds.reserve(bound_count);
        for (std::uint64_t b = 0; b < bound_count; ++b) {
          bounds.push_back(r.F64());
        }
        HistogramMetric& h = GetHistogram(name, labels, bounds);
        if (h.bounds_.size() != bounds.size()) {
          throw snapshot::RestoreError("metrics", "histogram bounds mismatch for " + name);
        }
        for (std::uint64_t b = 0; b < bound_count + 1; ++b) {
          h.buckets_[b] = r.U64();
        }
        h.count_ = r.U64();
        h.sum_ = r.F64();
        h.min_ = r.F64();
        h.max_ = r.F64();
        break;
      }
      default:
        throw snapshot::RestoreError("metrics", "bad metric kind");
    }
  }
}

}  // namespace vusion
