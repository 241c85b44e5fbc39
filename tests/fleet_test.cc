// Fleet determinism and isolation tests: stepping N Machines host-parallel
// under the quantum barrier must be bit-identical to serial stepping — per
// Machine: engine stats, frames saved, final clock value, and the full trace
// event stream — at every fleet thread count × scan thread count combination.
// And chaos inside one Machine must never perturb its siblings.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/fusion/fusion_engine.h"

namespace vusion {
namespace {

constexpr std::size_t kMachines = 8;
constexpr std::size_t kVmsPerMachine = 2;

fleet::FleetConfig SmallFleetConfig(std::size_t fleet_threads, std::size_t scan_threads) {
  fleet::FleetConfig config;
  config.machine_count = kMachines;
  config.host_threads = fleet_threads;
  config.vms_per_machine = kVmsPerMachine;
  config.quantum = 2 * kMillisecond;
  config.scenario.engine = EngineKind::kVUsion;
  config.scenario.machine.frame_count = 1u << 13;  // 32 MB per Machine
  config.scenario.fusion.wake_period = 1 * kMillisecond;
  config.scenario.fusion.pages_per_wake = 256;
  config.scenario.fusion.pool_frames = 512;
  config.scenario.fusion.scan_threads = scan_threads;
  // Small images keep the test fast while still producing cross-VM duplicates.
  VmImageSpec image;
  image.total_pages = 1024;
  config.images.assign(kVmsPerMachine, image);
  config.images[1].stack_seed = 7;  // second VM: same distro, different stack
  return config;
}

struct MachineResult {
  FusionStats stats;
  std::uint64_t frames_saved = 0;
  std::uint64_t consumed_frames = 0;
  SimTime final_time = 0;
  std::vector<TraceEvent> trace;
};

std::vector<MachineResult> RunFleet(std::size_t fleet_threads, std::size_t scan_threads,
                                    bool chaos_in_machine0 = false,
                                    std::size_t pages_per_wake = 256) {
  fleet::FleetConfig config = SmallFleetConfig(fleet_threads, scan_threads);
  config.scenario.fusion.pages_per_wake = pages_per_wake;
  fleet::Fleet fleet(config);
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    fleet.member(m).machine().trace().set_enabled(true);
  }
  if (chaos_in_machine0) {
    ChaosConfig chaos;
    chaos.seed = 99;
    chaos.SetAllRates(0.02);
    fleet.member(0).machine().EnableChaos(chaos);
  }
  fleet.BootAll();
  fleet.RunFor(40 * kMillisecond);

  std::vector<MachineResult> results(fleet.size());
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    Scenario& member = fleet.member(m);
    MachineResult& r = results[m];
    r.stats = member.engine()->stats();
    r.frames_saved = member.engine()->frames_saved();
    r.consumed_frames = member.consumed_frames();
    r.final_time = member.machine().clock().now();
    r.trace = member.machine().trace().Events();
  }
  return results;
}

void ExpectMachineResultsEqual(const MachineResult& a, const MachineResult& b,
                               const std::string& context) {
  EXPECT_EQ(a.stats.pages_scanned, b.stats.pages_scanned) << context;
  EXPECT_EQ(a.stats.merges, b.stats.merges) << context;
  EXPECT_EQ(a.stats.fake_merges, b.stats.fake_merges) << context;
  EXPECT_EQ(a.stats.unmerges_cow, b.stats.unmerges_cow) << context;
  EXPECT_EQ(a.stats.unmerges_coa, b.stats.unmerges_coa) << context;
  EXPECT_EQ(a.stats.zero_page_merges, b.stats.zero_page_merges) << context;
  EXPECT_EQ(a.stats.full_scans, b.stats.full_scans) << context;
  EXPECT_EQ(a.frames_saved, b.frames_saved) << context;
  EXPECT_EQ(a.consumed_frames, b.consumed_frames) << context;
  EXPECT_EQ(a.final_time, b.final_time) << context;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << context;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i].time, b.trace[i].time) << context << " event " << i;
    ASSERT_EQ(a.trace[i].type, b.trace[i].type) << context << " event " << i;
    ASSERT_EQ(a.trace[i].process_id, b.trace[i].process_id) << context << " event " << i;
    ASSERT_EQ(a.trace[i].vpn, b.trace[i].vpn) << context << " event " << i;
    ASSERT_EQ(a.trace[i].frame, b.trace[i].frame) << context << " event " << i;
  }
}

class FleetParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("VUSION_FLEET_THREADS");
    unsetenv("VUSION_SCAN_THREADS");
  }
};

TEST_F(FleetParityTest, ParallelSteppingIsBitIdenticalToSerial) {
  const std::vector<MachineResult> reference = RunFleet(1, 1);
  // Sanity: the fleet actually did fusion work worth comparing.
  std::uint64_t total_saved = 0;
  for (const MachineResult& r : reference) {
    EXPECT_GT(r.stats.pages_scanned, 0u);
    // Clocks reach at least fleet time; daemon overruns may push them past it.
    EXPECT_GE(r.final_time, 40 * kMillisecond);
    total_saved += r.frames_saved;
  }
  EXPECT_GT(total_saved, 0u);

  for (const std::size_t fleet_threads : {1u, 2u, 8u}) {
    for (const std::size_t scan_threads : {1u, 4u}) {
      if (fleet_threads == 1 && scan_threads == 1) {
        continue;  // the reference itself
      }
      const std::vector<MachineResult> parallel = RunFleet(fleet_threads, scan_threads);
      ASSERT_EQ(parallel.size(), reference.size());
      for (std::size_t m = 0; m < reference.size(); ++m) {
        ExpectMachineResultsEqual(
            reference[m], parallel[m],
            "machine " + std::to_string(m) + " fleet_threads=" + std::to_string(fleet_threads) +
                " scan_threads=" + std::to_string(scan_threads));
      }
    }
  }
}

TEST_F(FleetParityTest, StreamingScanCellsBitIdenticalToSerial) {
  // Members with scan_threads > 1 stream their scans through their own
  // Machine's pool while the fleet pool steps Machines. A quantum of at most 7
  // pages streams in 1-page chunks, the most interleaved stream (256-page
  // quanta are covered by ParallelSteppingIsBitIdenticalToSerial). Every cell
  // must be bit-identical to the single-threaded serial reference.
  constexpr std::size_t kSmallQuantum = 7;
  const std::vector<MachineResult> reference = RunFleet(1, 1, false, kSmallQuantum);
  struct Cell {
    std::size_t fleet_threads, scan_threads;
  };
  for (const Cell& cell : {Cell{2, 4}, Cell{8, 2}, Cell{8, 4}}) {
    const std::vector<MachineResult> run =
        RunFleet(cell.fleet_threads, cell.scan_threads, false, kSmallQuantum);
    ASSERT_EQ(run.size(), reference.size());
    for (std::size_t m = 0; m < reference.size(); ++m) {
      ExpectMachineResultsEqual(reference[m], run[m],
                                "machine " + std::to_string(m) + " fleet_threads=" +
                                    std::to_string(cell.fleet_threads) + " scan_threads=" +
                                    std::to_string(cell.scan_threads));
    }
  }
}

TEST_F(FleetParityTest, MachinesDifferFromEachOtherButShareImages) {
  // Same images + different machine seeds: siblings must NOT be bit-identical
  // to each other (the per-machine RNG streams diverge), or the fleet would be
  // one machine cloned N times and prove nothing.
  const std::vector<MachineResult> results = RunFleet(2, 1);
  bool any_difference = false;
  for (std::size_t m = 1; m < results.size(); ++m) {
    if (results[m].trace.size() != results[0].trace.size() ||
        results[m].stats.merges != results[0].stats.merges ||
        results[m].final_time != results[0].final_time) {
      any_difference = true;
    }
  }
  for (const MachineResult& r : results) {
    EXPECT_GE(r.final_time, 40 * kMillisecond);
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(FleetParityTest, ChaosInOneMachineDoesNotPerturbSiblings) {
  const std::vector<MachineResult> clean = RunFleet(2, 1, /*chaos_in_machine0=*/false);
  const std::vector<MachineResult> chaotic = RunFleet(2, 1, /*chaos_in_machine0=*/true);
  ASSERT_EQ(clean.size(), chaotic.size());
  // Every sibling of the chaotic machine is bit-identical to the clean run.
  for (std::size_t m = 1; m < clean.size(); ++m) {
    ExpectMachineResultsEqual(clean[m], chaotic[m], "sibling machine " + std::to_string(m));
  }
}

TEST_F(FleetParityTest, EnvOverrideSetsHostThreads) {
  setenv("VUSION_FLEET_THREADS", "4", 1);
  fleet::FleetConfig config;
  config.host_threads = 1;
  config.ApplyEnvOverrides();
  EXPECT_EQ(config.host_threads, 4u);
  unsetenv("VUSION_FLEET_THREADS");
  config.ApplyEnvOverrides();
  EXPECT_EQ(config.host_threads, 4u);  // absent: unchanged
  setenv("VUSION_FLEET_THREADS", "1000000", 1);
  config.ApplyEnvOverrides();
  EXPECT_EQ(config.host_threads, 4u);  // past ThreadPool::kMaxThreads: ignored

  // The constructor applies the environment itself (the CI hook: the TSan job
  // exports VUSION_FLEET_THREADS=4 to step every fleet in the suite threaded).
  setenv("VUSION_FLEET_THREADS", "2", 1);
  fleet::Fleet fleet(SmallFleetConfig(1, 1));
  EXPECT_EQ(fleet.config().host_threads, 2u);
  unsetenv("VUSION_FLEET_THREADS");
}

TEST_F(FleetParityTest, QuantumHookRunsOncePerMachinePerQuantum) {
  fleet::FleetConfig config = SmallFleetConfig(2, 1);
  config.quantum = 5 * kMillisecond;
  fleet::Fleet fleet(config);
  fleet.BootAll();
  std::vector<int> hook_runs(fleet.size(), 0);
  fleet.SetQuantumHook([&hook_runs](std::size_t m, Scenario&) { ++hook_runs[m]; });
  fleet.RunFor(20 * kMillisecond);  // 4 quanta
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    EXPECT_EQ(hook_runs[m], 4) << "machine " << m;
  }
  EXPECT_EQ(fleet.now(), 20 * kMillisecond);
  EXPECT_EQ(fleet.quantum_costs().size(), 4u);
}

TEST_F(FleetParityTest, TrailingPartialQuantumAdvancesExactly) {
  fleet::FleetConfig config = SmallFleetConfig(1, 1);
  config.quantum = 3 * kMillisecond;
  fleet::Fleet fleet(config);
  fleet.BootAll();
  fleet.RunFor(7 * kMillisecond);  // 3 + 3 + 1
  EXPECT_EQ(fleet.now(), 7 * kMillisecond);
  EXPECT_EQ(fleet.quantum_costs().size(), 3u);
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    EXPECT_GE(fleet.member(m).machine().clock().now(), 7 * kMillisecond);
  }
}

TEST_F(FleetParityTest, CollectMetricsLabelsEveryEntryWithMachineId) {
  fleet::Fleet fleet(SmallFleetConfig(2, 1));
  fleet.BootAll();
  fleet.RunFor(4 * kMillisecond);
  const MetricsSnapshot rollup = fleet.CollectMetrics();
  ASSERT_FALSE(rollup.entries.empty());
  std::vector<bool> seen(fleet.size(), false);
  for (const auto& entry : rollup.entries) {
    ASSERT_FALSE(entry.labels.empty()) << entry.name;
    const auto& [key, value] = entry.labels.back();
    ASSERT_EQ(key, "machine") << entry.name;
    const std::size_t id = std::strtoul(value.c_str(), nullptr, 10);
    ASSERT_LT(id, fleet.size());
    seen[id] = true;
  }
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    EXPECT_TRUE(seen[m]) << "no metrics from machine " << m;
  }
  // Per-machine values stay addressable through the labeled rollup.
  EXPECT_NE(rollup.Find("fault.total", {{"machine", "0"}}), nullptr);
  EXPECT_NE(rollup.Find("fault.total", {{"machine", std::to_string(fleet.size() - 1)}}),
            nullptr);
}

TEST_F(FleetParityTest, FootprintReportsLazyOverheads) {
  fleet::Fleet fleet(SmallFleetConfig(1, 1));
  // Before boot: no VM content, no cache fills, no trace — the per-Machine
  // fixed overhead is essentially the frame table.
  const auto before = fleet.CollectFootprint();
  EXPECT_EQ(before.machines, kMachines);
  const Machine::Footprint fp0 = fleet.member(0).machine().MeasureFootprint();
  EXPECT_EQ(fp0.trace_bytes, 0u) << "trace ring must stay unallocated until enabled+emitting";
  EXPECT_EQ(fp0.cache_bytes, 0u) << "LLC lines must stay unallocated until the first access";
  EXPECT_GT(fp0.frame_table_bytes, 0u);

  fleet.BootAll();
  fleet.RunFor(4 * kMillisecond);
  const auto after = fleet.CollectFootprint();
  // Boot and scanning are FULLY lazy on this path: pattern/zero pages never
  // materialize (content is derived from seeds), the engine's scan hashes
  // from seeds without cache-model accesses, and tracing is off — so the
  // footprint still equals the frame tables alone. This is the frugality the
  // fleet relies on: a booted, scanning Machine costs its frame table.
  EXPECT_EQ(after.total_bytes, before.total_bytes);
  EXPECT_GE(after.max_machine_bytes, after.total_bytes / after.machines);
  EXPECT_GT(after.template_bytes, 0u);
  // Templates are shared: their cost does not scale with machine_count.
  EXPECT_LT(after.template_bytes, kVmsPerMachine * 1024 * sizeof(std::uint64_t) * 2);
}

TEST_F(FleetParityTest, TemplateBootMatchesDirectBoot) {
  // BootFromTemplate(ComputeTemplate(spec, seed)) must be bit-identical to
  // Boot(spec, seed): same mappings, same engine behaviour afterwards.
  const auto run = [](bool via_template) {
    ScenarioConfig config;
    config.engine = EngineKind::kKsm;
    config.machine.frame_count = 1u << 13;
    config.fusion.wake_period = 1 * kMillisecond;
    config.fusion.pages_per_wake = 256;
    Scenario scenario(config);
    VmImageSpec image;
    image.total_pages = 1024;
    if (via_template) {
      scenario.BootVm(*VmImage::ComputeTemplate(image, 0x5eed));
    } else {
      scenario.BootVm(image, 0x5eed);
    }
    scenario.RunFor(20 * kMillisecond);
    return std::tuple{scenario.engine()->stats().merges, scenario.engine()->frames_saved(),
                      scenario.consumed_frames(), scenario.machine().clock().now()};
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace vusion
