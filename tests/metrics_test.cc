// Unit tests for the telemetry registry: counter/gauge/histogram semantics,
// stable handles, snapshot deltas, JSON/table rendering, and the disabled mode
// that makes recording a no-op.

#include <gtest/gtest.h>

#include <string>

#include "src/sim/metrics.h"

namespace vusion {
namespace {

TEST(CounterTest, AddAndSet) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("fusion.merges");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.value(), 5u);
  c.Set(42);  // bridged counters mirror a component's own total
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, HandlesAreStableAndDedupedByNameAndLabels) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("fault.count", {{"kind", "cow"}});
  Counter& b = registry.GetCounter("fault.count", {{"kind", "cow"}});
  Counter& other = registry.GetCounter("fault.count", {{"kind", "policy"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(CounterTest, HandleSurvivesLaterRegistrations) {
  MetricsRegistry registry;
  Counter& first = registry.GetCounter("m0");
  // Force enough registrations that a vector-backed store would reallocate.
  for (int i = 1; i < 200; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    registry.GetCounter(name);
  }
  first.Add(7);
  EXPECT_EQ(registry.GetCounter("m0").value(), 7u);
}

TEST(GaugeTest, SetOverwrites) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("alloc.free_frames");
  g.Set(128.0);
  g.Set(64.0);
  EXPECT_DOUBLE_EQ(g.value(), 64.0);
}

TEST(HistogramTest, BucketPlacementAndAggregates) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.GetHistogram("lat", {}, {10.0, 100.0});
  ASSERT_EQ(h.buckets().size(), 3u);  // two bounds + overflow
  h.Record(5.0);    // <= 10
  h.Record(10.0);   // boundary lands in the first bucket (x > bound advances)
  h.Record(50.0);   // <= 100
  h.Record(500.0);  // overflow
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 565.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
}

TEST(HistogramTest, BoundsFixedByFirstRegistration) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.GetHistogram("lat", {}, {1.0, 2.0});
  HistogramMetric& again = registry.GetHistogram("lat", {}, {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds().size(), 2u);
}

TEST(SnapshotTest, EntriesInRegistrationOrderWithKeys) {
  MetricsRegistry registry;
  registry.GetCounter("b.count").Add(1);
  registry.GetGauge("a.level", {{"pool", "main"}}).Set(2.0);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].Key(), "b.count");
  EXPECT_EQ(snap.entries[1].Key(), "a.level{pool=main}");
  EXPECT_EQ(snap.entries[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.entries[1].kind, MetricKind::kGauge);
}

TEST(SnapshotTest, LookupHelpers) {
  MetricsRegistry registry;
  registry.GetCounter("faults", {{"kind", "cow"}}).Add(11);
  registry.GetGauge("free").Set(7.5);
  registry.GetHistogram("lat", {}, {10.0}).Record(3.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("faults", {{"kind", "cow"}}), 11u);
  EXPECT_EQ(snap.CounterValue("faults"), 0u);  // label mismatch -> absent -> 0
  EXPECT_DOUBLE_EQ(snap.GaugeValue("free"), 7.5);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("missing"), 0.0);
  EXPECT_EQ(snap.CounterValue("lat"), 1u);  // histogram count via CounterValue
  EXPECT_EQ(snap.Find("nope"), nullptr);
}

TEST(SnapshotTest, SinceSubtractsCountersAndKeepsLaterGauges) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  Gauge& g = registry.GetGauge("g");
  HistogramMetric& h = registry.GetHistogram("h", {}, {10.0});
  c.Add(5);
  g.Set(1.0);
  h.Record(2.0);
  const MetricsSnapshot before = registry.Snapshot();
  c.Add(3);
  g.Set(9.0);
  h.Record(20.0);
  h.Record(4.0);
  const MetricsSnapshot delta = registry.Snapshot().Since(before);
  EXPECT_EQ(delta.CounterValue("c"), 3u);
  EXPECT_DOUBLE_EQ(delta.GaugeValue("g"), 9.0);
  const MetricsSnapshot::Entry* hist = delta.Find("h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
  ASSERT_EQ(hist->buckets.size(), 2u);
  EXPECT_EQ(hist->buckets[0], 1u);  // the 4.0
  EXPECT_EQ(hist->buckets[1], 1u);  // the 20.0
}

TEST(SnapshotTest, SinceHandlesAsymmetricEntrySets) {
  MetricsRegistry before_registry;
  before_registry.GetCounter("old").Add(2);
  const MetricsSnapshot base = before_registry.Snapshot();

  MetricsRegistry after_registry;
  after_registry.GetCounter("fresh").Add(4);
  const MetricsSnapshot delta = after_registry.Snapshot().Since(base);
  // Entries missing from base count from zero; entries only in base are dropped.
  ASSERT_EQ(delta.entries.size(), 1u);
  EXPECT_EQ(delta.CounterValue("fresh"), 4u);
  EXPECT_EQ(delta.Find("old"), nullptr);
}

TEST(SnapshotTest, JsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("fusion.merges", {{"engine", "vusion"}}).Add(3);
  registry.GetHistogram("lat", {}, {10.0}).Record(2.0);
  const std::string dump = registry.ToJson().Dump(0);
  EXPECT_NE(dump.find("\"name\": \"fusion.merges\""), std::string::npos);
  EXPECT_NE(dump.find("\"engine\": \"vusion\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(dump.find("\"buckets\""), std::string::npos);
}

TEST(SnapshotTest, RenderTableSkipsZeroEntries) {
  MetricsRegistry registry;
  registry.GetCounter("hot").Add(5);
  registry.GetCounter("cold");
  const std::string table = registry.RenderTable();
  EXPECT_NE(table.find("hot"), std::string::npos);
  EXPECT_EQ(table.find("cold"), std::string::npos);
}

}  // namespace
}  // namespace vusion
