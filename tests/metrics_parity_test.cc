// Telemetry must be a pure observer (the "third clock", see DESIGN.md): running
// the same scenario with the metrics registry harvested every 100 simulated ms
// and harvested once at the end must yield bit-identical simulated results —
// fusion stats, trace events, charged simulated timestamps and consumed frames.
// A divergence here means a recording or harvest site leaked into simulated
// state, latency, or randomness.

#include <gtest/gtest.h>

#include <vector>

#include "src/chaos/invariant_auditor.h"
#include "src/workload/scenario.h"

namespace vusion {
namespace {

struct SimResult {
  FusionStats stats;
  SimTime final_time = 0;
  std::uint64_t consumed_frames = 0;
  std::uint64_t trace_total = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<TraceEvent> events;
};

constexpr SimTime kHarvestPeriod = 100 * kMillisecond;
constexpr int kPeriods = 40;

SimResult RunScenario(EngineKind kind, bool harvest_every_period) {
  ScenarioConfig config;
  config.machine.frame_count = 1u << 15;
  config.fusion.wake_period = 1 * kMillisecond;
  config.fusion.pages_per_wake = 512;
  config.fusion.pool_frames = 2048;
  config.fusion.wpf_period = 100 * kMillisecond;
  config.engine = kind;
  Scenario scenario(config);
  scenario.machine().trace().set_enabled(true);

  VmImageSpec image;
  image.total_pages = 2048;
  scenario.BootVm(image, 1);
  scenario.BootVm(image, 2);
  // Both arms advance in the same steps; only the harvests differ.
  for (int period = 0; period < kPeriods; ++period) {
    scenario.RunFor(kHarvestPeriod);
    if (harvest_every_period) {
      (void)scenario.CollectMetrics();
    }
  }
  (void)scenario.CollectMetrics();

  SimResult result;
  if (scenario.engine() != nullptr) {
    result.stats = scenario.engine()->stats();
  }
  result.final_time = scenario.machine().clock().now();
  result.consumed_frames = scenario.consumed_frames();
  result.trace_total = scenario.machine().trace().total_emitted();
  result.trace_dropped = scenario.machine().trace().dropped();
  result.events = scenario.machine().trace().Events();

  // Post-run oracle: the machine must end in a globally consistent state
  // however often telemetry was harvested.
  InvariantAuditor auditor(scenario.machine());
  const AuditReport report = auditor.Audit(scenario.engine());
  EXPECT_GT(report.checks, 0u);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  return result;
}

// `on` harvested every period, `off` only at the end.
void ExpectIdentical(const SimResult& on, const SimResult& off) {
  EXPECT_EQ(on.stats.pages_scanned, off.stats.pages_scanned);
  EXPECT_EQ(on.stats.merges, off.stats.merges);
  EXPECT_EQ(on.stats.fake_merges, off.stats.fake_merges);
  EXPECT_EQ(on.stats.unmerges_cow, off.stats.unmerges_cow);
  EXPECT_EQ(on.stats.unmerges_coa, off.stats.unmerges_coa);
  EXPECT_EQ(on.stats.zero_page_merges, off.stats.zero_page_merges);
  EXPECT_EQ(on.stats.full_scans, off.stats.full_scans);
  EXPECT_EQ(on.stats.thp_splits, off.stats.thp_splits);
  EXPECT_EQ(on.stats.merges_by_type, off.stats.merges_by_type);
  EXPECT_EQ(on.final_time, off.final_time);
  EXPECT_EQ(on.consumed_frames, off.consumed_frames);
  EXPECT_EQ(on.trace_total, off.trace_total);
  EXPECT_EQ(on.trace_dropped, off.trace_dropped);
  ASSERT_EQ(on.events.size(), off.events.size());
  for (std::size_t i = 0; i < on.events.size(); ++i) {
    EXPECT_EQ(on.events[i].time, off.events[i].time) << "event " << i;
    EXPECT_EQ(on.events[i].type, off.events[i].type) << "event " << i;
    EXPECT_EQ(on.events[i].process_id, off.events[i].process_id) << "event " << i;
    EXPECT_EQ(on.events[i].vpn, off.events[i].vpn) << "event " << i;
    EXPECT_EQ(on.events[i].frame, off.events[i].frame) << "event " << i;
  }
}

class MetricsParityTest : public ::testing::TestWithParam<EngineKind> {};

// "On" harvests the registry every period; "off" leaves it alone until the
// run is over.
TEST_P(MetricsParityTest, SimulationIsBitIdenticalWithMetricsOnAndOff) {
  const SimResult on = RunScenario(GetParam(), /*harvest_every_period=*/true);
  const SimResult off = RunScenario(GetParam(), /*harvest_every_period=*/false);
  ExpectIdentical(on, off);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MetricsParityTest,
                         ::testing::Values(EngineKind::kNone, EngineKind::kKsm,
                                           EngineKind::kVUsion, EngineKind::kVUsionThp),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           switch (info.param) {
                             case EngineKind::kNone:
                               return "None";
                             case EngineKind::kKsm:
                               return "Ksm";
                             case EngineKind::kVUsion:
                               return "VUsion";
                             case EngineKind::kVUsionThp:
                               return "VUsionThp";
                             default:
                               return "Other";
                           }
                         });

}  // namespace
}  // namespace vusion
