// Chaos harness contract tests: (1) enabling chaos with all-zero rates is
// bit-identical to never enabling it (the injection gate really is free);
// (2) a fixed known-good seed per engine holds every invariant — the anchor
// the CI chaos-smoke job extends to whole seed ranges; (3) a probabilistic
// campaign replays byte-for-byte from its recorded fault schedule; (4) the
// auditor actually fails when machine state is damaged deliberately.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/fuzz_campaign.h"
#include "src/chaos/invariant_auditor.h"
#include "src/fusion/engine_factory.h"
#include "src/kernel/process.h"

namespace vusion {
namespace {

struct ProbeResult {
  SimTime final_time = 0;
  std::uint64_t frames_saved = 0;
  std::uint64_t allocated = 0;
  std::vector<TraceEvent> events;
};

// A fusion-heavy workload with every simulated source of nondeterminism in
// play: randomized pool draws, scan wake-ups, demand faults, prefetch.
ProbeResult RunProbe(bool enable_chaos) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 13;
  machine_config.seed = 21;
  Machine machine(machine_config);
  machine.trace().set_enabled(true);
  if (enable_chaos) {
    ChaosConfig chaos;
    chaos.seed = 99;  // rates all zero: every site disabled
    machine.EnableChaos(chaos);
  }
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 128;
  fusion_config.pool_frames = 256;
  auto engine = MakeEngine(EngineKind::kVUsion, machine, fusion_config);
  engine->Install();

  constexpr std::size_t kPages = 256;
  Process& a = machine.CreateProcess();
  Process& b = machine.CreateProcess();
  const VirtAddr base_a = a.AllocateRegion(kPages, PageType::kAnonymous, true, true);
  const VirtAddr base_b = b.AllocateRegion(kPages, PageType::kAnonymous, true, true);
  for (std::size_t i = 0; i < kPages; ++i) {
    a.SetupMapPattern(VaddrToVpn(base_a) + i, 0x7000 + (i % 24));
    b.SetupMapPattern(VaddrToVpn(base_b) + i, 0x7000 + (i % 24));
  }
  Rng rng(17);
  for (int step = 0; step < 300; ++step) {
    const std::size_t page = rng.NextBelow(kPages);
    Process& proc = rng.NextBool(0.5) ? a : b;
    const VirtAddr addr = ((&proc == &a) ? base_a : base_b) + page * kPageSize;
    switch (rng.NextBelow(4)) {
      case 0:
        proc.Write64(addr, step);
        break;
      case 1:
        proc.Read64(addr);
        break;
      case 2:
        machine.Idle(rng.NextInRange(1, 3) * kMillisecond);
        break;
      default:
        proc.Prefetch(addr);
        break;
    }
  }
  machine.Idle(20 * kMillisecond);

  ProbeResult result;
  result.final_time = machine.clock().now();
  result.frames_saved = engine->frames_saved();
  result.allocated = machine.memory().allocated_count();
  result.events = machine.trace().Events();
  engine->Uninstall();
  return result;
}

TEST(ChaosParityTest, ChaosOffAndZeroRateChaosAreBitIdentical) {
  const ProbeResult off = RunProbe(false);
  const ProbeResult zero = RunProbe(true);
  EXPECT_EQ(off.final_time, zero.final_time);
  EXPECT_EQ(off.frames_saved, zero.frames_saved);
  EXPECT_EQ(off.allocated, zero.allocated);
  ASSERT_EQ(off.events.size(), zero.events.size());
  for (std::size_t i = 0; i < off.events.size(); ++i) {
    EXPECT_EQ(off.events[i].time, zero.events[i].time) << "event " << i;
    EXPECT_EQ(off.events[i].type, zero.events[i].type) << "event " << i;
    EXPECT_EQ(off.events[i].process_id, zero.events[i].process_id) << "event " << i;
    EXPECT_EQ(off.events[i].vpn, zero.events[i].vpn) << "event " << i;
    EXPECT_EQ(off.events[i].frame, zero.events[i].frame) << "event " << i;
  }
}

class ChaosCampaignTest : public ::testing::TestWithParam<EngineKind> {};

// The fixed known-good seeds the regular suite pins: a short fault-injected
// campaign on each engine must hold every invariant.
TEST_P(ChaosCampaignTest, KnownGoodSeedHoldsAllInvariants) {
  for (const std::uint64_t seed : {1, 2}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CampaignOptions options;
    options.engine = GetParam();
    options.seed = seed;
    options.steps = 250;
    options.audit_epoch = 8;
    options.shrink = false;
    const CampaignResult result = FuzzCampaign(options).Run();
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << violation;
    }
    EXPECT_TRUE(result.ok) << result.repro;
    EXPECT_GT(result.audits, 0u);
    EXPECT_GT(result.checks, 0u);
  }
}

std::string CampaignName(const ::testing::TestParamInfo<EngineKind>& info) {
  std::string name = EngineKindName(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Engines, ChaosCampaignTest,
                         ::testing::Values(EngineKind::kKsm, EngineKind::kWpf,
                                           EngineKind::kVUsion),
                         CampaignName);

TEST(ChaosReplayTest, RecordedScheduleReplaysByteForByte) {
  CampaignOptions options;
  options.engine = EngineKind::kVUsion;
  options.seed = 7;
  options.steps = 250;
  options.fault_rate = 0.05;
  options.audit_epoch = 8;
  options.shrink = false;
  const CampaignResult first = FuzzCampaign(options).Run();
  ASSERT_TRUE(first.ok) << (first.violations.empty() ? "" : first.violations.front());
  ASSERT_GT(first.faults_injected, 0u) << "rate too low to exercise replay";

  // Replaying the recorded (site, visit) schedule through an explicit-mode
  // injector must fire the identical faults and audit the identical state.
  CampaignOptions replay = options;
  replay.use_schedule = true;
  replay.schedule = first.schedule;
  const CampaignResult second = FuzzCampaign(replay).Run();
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(second.schedule, first.schedule);
  EXPECT_EQ(second.faults_injected, first.faults_injected);
  EXPECT_EQ(second.audits, first.audits);
  EXPECT_EQ(second.checks, first.checks);
  EXPECT_EQ(second.tolerated_throws, first.tolerated_throws);
}

TEST(ChaosAuditorTest, DetectsDeliberateRefcountCorruption) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 10;
  Machine machine(machine_config);
  Process& process = machine.CreateProcess();
  const VirtAddr base = process.AllocateRegion(4, PageType::kAnonymous, true, false);
  for (std::size_t i = 0; i < 4; ++i) {
    process.SetupMapPattern(VaddrToVpn(base) + i, 0x100 + i);
  }
  InvariantAuditor auditor(machine);
  EXPECT_TRUE(auditor.Audit(nullptr).ok);

  FrameId victim = kInvalidFrame;
  process.address_space().page_table().ForEachEntry(
      0, Vpn{1} << 36, [&](Vpn, Pte& pte) {
        if (victim == kInvalidFrame && pte.frame != kInvalidFrame) {
          victim = pte.frame;
        }
      });
  ASSERT_NE(victim, kInvalidFrame);

  machine.memory().SetRefcount(victim, 7);  // claims 7 sharers; 1 mapping exists
  const AuditReport report = auditor.Audit(nullptr);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.violations.empty());

  machine.memory().SetRefcount(victim, 0);
  EXPECT_TRUE(auditor.Audit(nullptr).ok);
}

}  // namespace
}  // namespace vusion
