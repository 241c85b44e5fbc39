// Savestate round-trip parity (DESIGN.md §13): saving a machine, restoring it
// into a brand-new (Machine, engine) pair, and continuing the workload must be
// bit-identical — stats, traces, timestamps, RNG streams — to never having
// stopped. Checked as byte equality of the final snapshots across every engine
// × scan-thread × scan-quantum cell, plus restore→immediate-resave idempotence
// and fork-style fan-out divergence-only-through-inputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/invariant_auditor.h"
#include "src/fusion/engine_factory.h"
#include "src/kernel/process.h"
#include "src/snapshot/machine_snapshot.h"

namespace vusion {
namespace {

constexpr std::size_t kProcesses = 3;
constexpr std::size_t kPagesPerProcess = 64;
constexpr std::uint64_t kPhase1Seed = 1111;
constexpr std::uint64_t kPhase2Seed = 2222;
constexpr int kPhaseSteps = 300;

// A scan quantum of at most this many pages streams in 1-page chunks.
constexpr std::size_t kChunkOneQuantum = 7;

struct Cell {
  EngineKind kind;
  std::size_t threads;
  std::size_t pages_per_wake = 256;
  // Unused. gtest prints the parameter's size into each test name, and this
  // keeps the cell at the 32 bytes it had while the scan-pipeline shape was a
  // matrix axis, so the cells keep their test names.
  std::uint64_t reserved = 0;
};
static_assert(sizeof(Cell) == 32);

// The "DeltaOff" infix is kept from when delta scanning was a matrix axis, and
// the "C1" suffix (1-page hash chunks) from when the chunk size was a knob, so
// the cells keep their test names.
std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  return std::string(EngineKindName(info.param.kind)) + "T" +
         std::to_string(info.param.threads) + "DeltaOff" +
         (info.param.pages_per_wake <= kChunkOneQuantum ? "C1" : "");
}

MachineConfig MakeMachineConfig() {
  MachineConfig config;
  config.frame_count = 1u << 14;
  config.seed = 99;
  return config;
}

FusionConfig MakeFusionConfig(const Cell& cell) {
  FusionConfig config;
  config.wake_period = 1 * kMillisecond;
  config.pages_per_wake = cell.pages_per_wake;
  config.pool_frames = 1024;
  config.wpf_period = 10 * kMillisecond;
  config.scan_threads = cell.threads;
  return config;
}

// Boots the process set: duplicate-heavy pattern pages so every engine has
// merge work. Returns each process's region base (identical across runs — the
// boot sequence is deterministic — and valid verbatim on a restored machine).
std::vector<VirtAddr> SetupProcesses(Machine& machine) {
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    Process& proc = machine.CreateProcess();
    const VirtAddr base =
        proc.AllocateRegion(kPagesPerProcess, PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPagesPerProcess; ++i) {
      proc.SetupMapPattern(VaddrToVpn(base) + i, 0x9000 + (i % 16));
    }
  }
  return bases;
}

// One deterministic workload phase: a seeded mix of writes, reads, zero-fills,
// and idle periods. Replayed identically on the straight-through machine and
// on the restored one.
void RunPhase(Machine& machine, const std::vector<VirtAddr>& bases, std::uint64_t seed) {
  Rng rng(seed);
  const auto& procs = machine.processes();
  for (int step = 0; step < kPhaseSteps; ++step) {
    const std::size_t p = rng.NextBelow(bases.size());
    Process& proc = *procs[p];
    const std::uint64_t page = rng.NextBelow(kPagesPerProcess);
    const VirtAddr addr =
        bases[p] + page * kPageSize + rng.NextBelow(kPageSize / 8) * 8;
    try {
      switch (rng.NextBelow(5)) {
        case 0:
          proc.Write64(addr, rng.Next());
          break;
        case 1:
          (void)proc.Read64(addr);
          break;
        case 2:
          machine.Idle(rng.NextInRange(1, 4) * kMillisecond);
          break;
        case 3:
          proc.Write64(addr, 0);  // zero pages: merge food for every engine
          break;
        default:
          (void)proc.Read64(bases[p] + page * kPageSize);
          break;
      }
    } catch (const std::runtime_error&) {
      // Injected-fault retry limit (chaos variants only): abandoning the access
      // is part of the deterministic stream, so both runs abandon identically.
    }
  }
  machine.Idle(20 * kMillisecond);
}

// On mismatch, names the first differing section instead of dumping megabytes.
std::string DescribeFirstDiff(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    std::string out = "sizes differ: " + std::to_string(a.size()) + " vs " +
                      std::to_string(b.size()) + "; per-section:";
    const snapshot::SnapshotInfo ia = snapshot::InspectSnapshot(a);
    const snapshot::SnapshotInfo ib = snapshot::InspectSnapshot(b);
    for (std::size_t i = 0; i < ia.sections.size() && i < ib.sections.size(); ++i) {
      if (ia.sections[i].size != ib.sections[i].size) {
        out += " " + ia.sections[i].name + "=" + std::to_string(ia.sections[i].size) +
               "/" + std::to_string(ib.sections[i].size);
      }
    }
    return out;
  }
  std::size_t pos = 0;
  while (pos < a.size() && a[pos] == b[pos]) {
    ++pos;
  }
  if (pos == a.size()) {
    return "identical";
  }
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(a);
  for (const auto& section : info.sections) {
    if (pos >= section.offset && pos < section.offset + section.size) {
      return "first diff at byte " + std::to_string(pos) + " in section '" +
             section.name + "' (+" + std::to_string(pos - section.offset) + ")";
    }
  }
  return "first diff at byte " + std::to_string(pos) + " (framing)";
}

class SnapshotParityTest : public ::testing::TestWithParam<Cell> {};

TEST_P(SnapshotParityTest, SaveRestoreContinueIsBitIdentical) {
  const Cell cell = GetParam();

  // Run A: straight through both phases, then save.
  std::string straight;
  std::vector<VirtAddr> bases;
  {
    Machine machine(MakeMachineConfig());
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    bases = SetupProcesses(machine);
    RunPhase(machine, bases, kPhase1Seed);
    RunPhase(machine, bases, kPhase2Seed);
    straight = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
  }

  // Run B: phase 1 only, then save the midpoint.
  std::string midpoint;
  {
    Machine machine(MakeMachineConfig());
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    const std::vector<VirtAddr> bases_b = SetupProcesses(machine);
    ASSERT_EQ(bases_b, bases) << "boot sequence must be deterministic";
    RunPhase(machine, bases, kPhase1Seed);
    midpoint = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
  }

  // Restore→immediate resave must reproduce the midpoint byte for byte.
  {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(midpoint);
    ASSERT_EQ(restored.kind, cell.kind);
    const std::string resave =
        snapshot::SaveSnapshot(*restored.machine, restored.engine.get(), restored.kind);
    EXPECT_TRUE(resave == midpoint) << DescribeFirstDiff(midpoint, resave);
  }

  // Run C: restore the midpoint into a fresh pair, continue with phase 2.
  std::string continued;
  {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(midpoint);
    ASSERT_EQ(restored.kind, cell.kind);
    RunPhase(*restored.machine, bases, kPhase2Seed);
    // The continuation must also leave a consistent machine behind.
    const AuditReport report =
        InvariantAuditor(*restored.machine).Audit(restored.engine.get());
    EXPECT_TRUE(report.ok);
    for (const std::string& violation : report.violations) {
      ADD_FAILURE() << violation;
    }
    continued =
        snapshot::SaveSnapshot(*restored.machine, restored.engine.get(), restored.kind);
  }

  EXPECT_TRUE(straight == continued) << DescribeFirstDiff(straight, continued);
}

INSTANTIATE_TEST_SUITE_P(
    EngineMatrix, SnapshotParityTest,
    ::testing::Values(Cell{EngineKind::kKsm, 1}, Cell{EngineKind::kKsm, 4},
                      Cell{EngineKind::kWpf, 1}, Cell{EngineKind::kWpf, 4},
                      Cell{EngineKind::kVUsion, 1}, Cell{EngineKind::kVUsion, 4},
                      // Streaming at the most interleaved chunk size. (WPF's
                      // batch is a whole pass, whatever the quantum.)
                      Cell{EngineKind::kKsm, 4, kChunkOneQuantum},
                      Cell{EngineKind::kVUsion, 4, kChunkOneQuantum}),
    CellName);

// The determinism fence (DESIGN.md §14): hash-memo validity is serialized in
// snapshots, so the installed-memo set must depend only on config and
// simulated state — a speculative snapshot taken at any generation other than
// the recorded pre-merge one is dropped, never installed, no matter how the
// worker/merge interleaving fell. (Memo COVERAGE may legitimately differ
// between the serial path and the pipeline — the pipeline primes pages the
// serial body skips before hashing — which is fine: savestate determinism is
// per config.) Checked as byte equality of every snapshot section except
// "config" (which records the thread count itself) between 2- and 8-thread
// runs of the same campaign, at 32-page and at 1-page hash chunks.
TEST(SnapshotParityTest, StreamingShapeDoesNotLeakIntoSnapshotBytes) {
  const auto sections_except_config = [](std::size_t threads, std::size_t pages_per_wake) {
    const Cell cell{EngineKind::kKsm, threads, pages_per_wake};
    Machine machine(MakeMachineConfig());
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    const std::vector<VirtAddr> bases = SetupProcesses(machine);
    RunPhase(machine, bases, kPhase1Seed);
    const std::string image = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& s : snapshot::InspectSnapshot(image).sections) {
      if (s.name != "config") {
        out.emplace_back(s.name, image.substr(s.offset, s.size));
      }
    }
    return out;
  };
  for (const std::size_t pages_per_wake : {std::size_t{256}, kChunkOneQuantum}) {
    const auto two = sections_except_config(2, pages_per_wake);
    const auto eight = sections_except_config(8, pages_per_wake);
    ASSERT_EQ(two.size(), eight.size());
    for (std::size_t i = 0; i < two.size(); ++i) {
      EXPECT_EQ(two[i].first, eight[i].first);
      EXPECT_TRUE(two[i].second == eight[i].second)
          << "threads 2 vs 8 (pages_per_wake=" << pages_per_wake << ") diverged in section '"
          << two[i].first << "'";
    }
  }
}

// Fork-style fan-out: clones restored from one buffer are fully independent
// deep copies — identical inputs keep them bit-identical, divergent inputs
// diverge only the machine they were applied to.
TEST(SnapshotFanOutTest, ClonesAreIndependentAndDeterministic) {
  const Cell cell{EngineKind::kVUsion, 1};
  std::string image;
  std::vector<VirtAddr> bases;
  {
    Machine machine(MakeMachineConfig());
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    bases = SetupProcesses(machine);
    RunPhase(machine, bases, kPhase1Seed);
    image = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
  }

  std::vector<snapshot::RestoredMachine> clones = snapshot::FanOut(image, 3);
  ASSERT_EQ(clones.size(), 3u);

  // Same inputs on clones 0 and 1; different phase seed on clone 2.
  RunPhase(*clones[0].machine, bases, kPhase2Seed);
  RunPhase(*clones[1].machine, bases, kPhase2Seed);
  RunPhase(*clones[2].machine, bases, kPhase2Seed + 1);

  const std::string s0 =
      snapshot::SaveSnapshot(*clones[0].machine, clones[0].engine.get(), clones[0].kind);
  const std::string s1 =
      snapshot::SaveSnapshot(*clones[1].machine, clones[1].engine.get(), clones[1].kind);
  const std::string s2 =
      snapshot::SaveSnapshot(*clones[2].machine, clones[2].engine.get(), clones[2].kind);
  EXPECT_TRUE(s0 == s1) << DescribeFirstDiff(s0, s1);
  EXPECT_NE(s0, s2);
}

// A baseline (engine-less) machine snapshots too: chaos repros and fleet
// templates save machines before any engine is installed.
TEST(SnapshotParityBaselineTest, NoEngineRoundTrip) {
  std::string image;
  {
    Machine machine(MakeMachineConfig());
    const std::vector<VirtAddr> bases = SetupProcesses(machine);
    RunPhase(machine, bases, kPhase1Seed);
    image = snapshot::SaveSnapshot(machine, nullptr, EngineKind::kNone);
  }
  snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(image);
  EXPECT_EQ(restored.kind, EngineKind::kNone);
  EXPECT_EQ(restored.engine, nullptr);
  const std::string resave =
      snapshot::SaveSnapshot(*restored.machine, nullptr, EngineKind::kNone);
  EXPECT_TRUE(resave == image) << DescribeFirstDiff(image, resave);
}

// Chaos state must ride along: the fault injector's RNG, visit counters, and
// recorded schedule have to resume exactly, or the fault stream after restore
// drifts from the straight run's.
TEST(SnapshotChaosTest, FaultInjectorStateRoundTrips) {
  const Cell cell{EngineKind::kVUsion, 1};
  auto boot_chaos = [](Machine& machine) {
    ChaosConfig config;
    config.seed = 5;
    config.SetAllRates(0.01);
    machine.EnableChaos(config);
  };

  std::string straight;
  std::vector<VirtAddr> bases;
  {
    Machine machine(MakeMachineConfig());
    boot_chaos(machine);
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    bases = SetupProcesses(machine);
    RunPhase(machine, bases, kPhase1Seed);
    RunPhase(machine, bases, kPhase2Seed);
    straight = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
  }

  std::string continued;
  {
    Machine machine(MakeMachineConfig());
    boot_chaos(machine);
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    SetupProcesses(machine);
    RunPhase(machine, bases, kPhase1Seed);
    const std::string mid = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(mid);
    ASSERT_NE(restored.machine->chaos(), nullptr);
    RunPhase(*restored.machine, bases, kPhase2Seed);
    continued =
        snapshot::SaveSnapshot(*restored.machine, restored.engine.get(), restored.kind);
  }

  EXPECT_TRUE(straight == continued) << DescribeFirstDiff(straight, continued);
}

// Idle-split identity through a snapshot: Idle(a) → save/restore → Idle(b)
// must equal Idle(a+b) straight through, including daemon wakeups in between.
TEST(SnapshotParityBaselineTest, IdleSplitAcrossSnapshotIsIdentity) {
  const Cell cell{EngineKind::kKsm, 1};
  std::string straight;
  {
    Machine machine(MakeMachineConfig());
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    SetupProcesses(machine);
    machine.Idle(70 * kMillisecond);
    straight = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
  }
  std::string split;
  {
    Machine machine(MakeMachineConfig());
    std::unique_ptr<FusionEngine> engine =
        MakeEngineExact(cell.kind, machine, MakeFusionConfig(cell));
    engine->Install();
    SetupProcesses(machine);
    machine.Idle(30 * kMillisecond);
    const std::string mid = snapshot::SaveSnapshot(machine, engine.get(), cell.kind);
    engine->Uninstall();
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(mid);
    restored.machine->Idle(40 * kMillisecond);
    split = snapshot::SaveSnapshot(*restored.machine, restored.engine.get(), restored.kind);
  }
  EXPECT_TRUE(straight == split) << DescribeFirstDiff(straight, split);
}

}  // namespace
}  // namespace vusion
