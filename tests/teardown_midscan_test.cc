// VM teardown at every scan phase boundary: a phase hook destroys a forked
// child exactly when the engine announces the target phase, for each engine
// at 1 and 4 scan threads. The engine must drop the dead process's pages
// without touching freed state, keep its trees and rmaps consistent
// (machine-wide audit), and keep serving the survivors. A phase the engine
// does not announce must never reach the hook, at any thread count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "src/chaos/invariant_auditor.h"
#include "src/fusion/engine_factory.h"
#include "src/kernel/process.h"

namespace vusion {
namespace {

using TeardownParam = std::tuple<EngineKind, ScanPhase, std::size_t>;

class TeardownMidScanTest : public ::testing::TestWithParam<TeardownParam> {
 protected:
  void SetUp() override {
    unsetenv("VUSION_SCAN_THREADS");
  }
};

TEST_P(TeardownMidScanTest, EngineSurvivesTeardownAtPhaseBoundary) {
  const auto [kind, target_phase, threads] = GetParam();
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = 11;
  Machine machine(machine_config);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 512;
  fusion_config.wpf_period = 5 * kMillisecond;
  fusion_config.scan_threads = threads;
  auto engine = MakeEngine(kind, machine, fusion_config);
  ASSERT_NE(engine, nullptr);
  engine->Install();

  constexpr std::size_t kPages = 192;
  Process& host = machine.CreateProcess();
  const VirtAddr base = host.AllocateRegion(kPages, PageType::kAnonymous, true, true);
  for (std::size_t i = 0; i < kPages; ++i) {
    host.SetupMapPattern(VaddrToVpn(base) + i, 0x6000 + (i % 16));
  }

  std::vector<Process*> children;
  auto refill = [&] {
    while (children.size() < 3) {
      Process& child = machine.ForkProcess(host);
      // Dirty a page so each child holds both CoW-shared and private frames.
      child.Write64(base + (children.size() * 31 % kPages) * kPageSize,
                    0xD00D + children.size());
      children.push_back(&child);
    }
  };
  refill();

  std::size_t phase_hits = 0;
  std::size_t teardowns = 0;
  engine->SetPhaseHook([&](FusionEngine&, ScanPhase phase) {
    if (phase != target_phase) {
      return;
    }
    ++phase_hits;
    if (!children.empty()) {
      machine.DestroyProcess(*children.back());
      children.pop_back();
      ++teardowns;
    }
  });

  for (int round = 0; round < 30; ++round) {
    machine.Idle(2 * kMillisecond);
    refill();  // keep victims available for the next quantum
  }
  engine->SetPhaseHook(nullptr);
  machine.Idle(20 * kMillisecond);

  // WPF announces every phase. KSM and VUsion announce only the quantum's
  // start and end, whatever the thread count: they hash while they merge.
  const bool phase_emitted = target_phase == ScanPhase::kQuantumStart ||
                             target_phase == ScanPhase::kQuantumEnd ||
                             kind == EngineKind::kWpf;
  if (phase_emitted) {
    EXPECT_GT(phase_hits, 0u) << ScanPhaseName(target_phase);
    EXPECT_GT(teardowns, 0u);
  } else {
    EXPECT_EQ(phase_hits, 0u) << ScanPhaseName(target_phase);
  }

  // Survivors keep full read/write service after every mid-scan teardown.
  for (std::size_t i = 0; i < kPages; i += 17) {
    host.Write64(base + i * kPageSize, 0xBEEF0000 + i);
    EXPECT_EQ(host.Read64(base + i * kPageSize), 0xBEEF0000 + i);
  }
  machine.Idle(10 * kMillisecond);

  InvariantAuditor auditor(machine);
  const AuditReport report = auditor.Audit(engine.get());
  EXPECT_GT(report.checks, 0u);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  engine->Uninstall();
}

std::string TeardownName(const ::testing::TestParamInfo<TeardownParam>& info) {
  std::string name = EngineKindName(std::get<0>(info.param));
  name += "_";
  name += ScanPhaseName(std::get<1>(info.param));
  name += "_t" + std::to_string(std::get<2>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, TeardownMidScanTest,
    ::testing::Combine(::testing::Values(EngineKind::kKsm, EngineKind::kWpf,
                                         EngineKind::kVUsion),
                       ::testing::Values(ScanPhase::kQuantumStart,
                                         ScanPhase::kBatchCollected,
                                         ScanPhase::kHashed,
                                         ScanPhase::kQuantumEnd),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    TeardownName);

}  // namespace
}  // namespace vusion
