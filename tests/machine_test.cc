#include "src/kernel/machine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/fusion/ksm.h"
#include "src/kernel/process.h"

namespace vusion {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.frame_count = 4096;
  return config;
}

TEST(MachineTest, DemandPagingOnFirstTouch) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(16, PageType::kAnonymous, false, false);
  EXPECT_EQ(p.TranslateFrame(VaddrToVpn(base)), kInvalidFrame);
  EXPECT_EQ(p.Read64(base), 0u);  // demand-zero fill
  EXPECT_NE(p.TranslateFrame(VaddrToVpn(base)), kInvalidFrame);
  EXPECT_EQ(machine.total_faults(), 1u);
  p.Read64(base);  // no further fault
  EXPECT_EQ(machine.total_faults(), 1u);
}

TEST(MachineTest, ReadsBackWrites) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Write64(base + 24, 0x1122334455667788ULL);
  EXPECT_EQ(p.Read64(base + 24), 0x1122334455667788ULL);
  EXPECT_EQ(p.Read64(base + 32), 0u);
}

TEST(MachineTest, AccessOutsideVmaThrows) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  EXPECT_THROW(p.Read64(0xdead0000), std::runtime_error);
}

TEST(MachineTest, TimingFaultIsSlowerThanCachedAccess) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  const SimTime faulting = p.TimedRead(base);
  const SimTime warm = p.TimedRead(base);
  EXPECT_GT(faulting, warm * 5);  // fault + allocation dominates
}

TEST(MachineTest, CacheMakesSecondAccessFaster) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);                          // fault + fill
  const SimTime cold = p.TimedRead(base + 512);  // new line: DRAM
  const SimTime hot = p.TimedRead(base + 512);   // cached line
  EXPECT_GT(cold, hot);
}

TEST(MachineTest, AccessedAndDirtyBits) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);
  const Pte* pte = p.address_space().GetPte(VaddrToVpn(base));
  EXPECT_TRUE(pte->accessed());
  // Clear accessed; a fresh access re-sets it via the TLB-fill path.
  p.address_space().UpdateFlags(VaddrToVpn(base), 0, kPteAccessed);
  EXPECT_FALSE(p.address_space().GetPte(VaddrToVpn(base))->accessed());
  p.Read64(base);
  EXPECT_TRUE(p.address_space().GetPte(VaddrToVpn(base))->accessed());
  // Dirty set on write.
  p.Write64(base, 1);
  EXPECT_TRUE(p.address_space().GetPte(VaddrToVpn(base))->dirty());
}

TEST(MachineTest, PrefetchFillsCacheButNeverFaults) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  // Prefetch of an unmapped page: silent, no fault.
  p.Prefetch(base);
  EXPECT_EQ(machine.total_faults(), 0u);
  EXPECT_EQ(p.TranslateFrame(VaddrToVpn(base)), kInvalidFrame);
  // Prefetch of a mapped page fills the LLC.
  p.Read64(base);
  const FrameId frame = p.TranslateFrame(VaddrToVpn(base));
  machine.llc().FlushFrame(frame);
  p.Prefetch(base + 128);
  EXPECT_TRUE(machine.llc().Contains(static_cast<PhysAddr>(frame) * kPageSize + 128));
}

TEST(MachineTest, CacheDisabledPagesNeverEnterLlc) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);
  const FrameId frame = p.TranslateFrame(VaddrToVpn(base));
  machine.llc().FlushFrame(frame);
  p.address_space().UpdateFlags(VaddrToVpn(base), kPteCacheDisable, 0);
  p.Read64(base + 192);
  p.Prefetch(base + 192);  // the Gruss et al. prefetch attack vector
  EXPECT_FALSE(machine.llc().Contains(static_cast<PhysAddr>(frame) * kPageSize + 192));
}

TEST(MachineTest, FlushCacheLineEvicts) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);
  const FrameId frame = p.TranslateFrame(VaddrToVpn(base));
  ASSERT_TRUE(machine.llc().Contains(static_cast<PhysAddr>(frame) * kPageSize));
  p.FlushCacheLine(base);
  EXPECT_FALSE(machine.llc().Contains(static_cast<PhysAddr>(frame) * kPageSize));
}

TEST(MachineTest, HugeMappingAccessResolvesSubpageFrame) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(kPagesPerHugePage, PageType::kAnonymous, false, true);
  ASSERT_TRUE(p.SetupMapHuge(VaddrToVpn(base), 0x8888));
  // Subpage 3 has pattern seed 0x8888+3; its first word must match.
  const std::uint64_t word = p.Read64(base + 3 * kPageSize);
  PhysicalMemory probe(1);
  probe.FillPattern(0, 0x8888 + 3);
  EXPECT_EQ(word, probe.ReadU64(0, 0));
}

TEST(MachineTest, UnmapAndFreeReleasesFrame) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.SetupMapPattern(VaddrToVpn(base), 1);
  const std::size_t allocated = machine.memory().allocated_count();
  p.SetupUnmap(VaddrToVpn(base));
  EXPECT_EQ(machine.memory().allocated_count(), allocated - 1);
  EXPECT_EQ(p.TranslateFrame(VaddrToVpn(base)), kInvalidFrame);
}


TEST(MachineTest, L1MakesRepeatedLineAccessFastest) {
  MachineConfig config = SmallMachine();
  config.latency.noise_sigma = 0.0;
  Machine machine(config);
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);                               // fault + fill
  const SimTime llc_level = p.TimedRead(base + 64);   // L1 miss is also LLC miss: DRAM
  const SimTime l1_level = p.TimedRead(base + 64);    // now in L1
  EXPECT_GT(llc_level, l1_level);
  // With default constants: TLB lookup (1) + L1 hit (4) = 5 ns exactly.
  EXPECT_EQ(l1_level,
            machine.latency().config().l1_hit + machine.latency().config().tlb_lookup);
}

// A cache keys lines in 32 bits (CacheConfig::max_frames): one LLC set of 64 B
// lines keys 2^26 - 1 frames, so a machine with more is rejected before its
// physical memory is sized.
TEST(MachineTest, RejectsMoreFramesThanTheCachesCanKey) {
  MachineConfig config = SmallMachine();
  config.cache = CacheConfig{.line_size = 64, .ways = 16, .sets = 1};
  config.frame_count = FrameId{1} << 26;
  EXPECT_NE(config.CacheKeyError(), nullptr);
  EXPECT_THROW(Machine{config}, std::invalid_argument);
  config.frame_count = (FrameId{1} << 26) - 1;
  EXPECT_EQ(config.CacheKeyError(), nullptr);

  config = SmallMachine();
  config.l1_cache = CacheConfig{.line_size = 64, .ways = 8, .sets = 1};
  config.frame_count = FrameId{1} << 26;
  EXPECT_THROW(Machine{config}, std::invalid_argument);
  // The default geometries key every frame below kInvalidFrame.
  config = MachineConfig{};
  config.frame_count = kInvalidFrame;
  EXPECT_EQ(config.CacheKeyError(), nullptr);
}

TEST(MachineTest, FlushFrameEvictsAllLevels) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);
  const FrameId frame = p.TranslateFrame(VaddrToVpn(base));
  const PhysAddr paddr = static_cast<PhysAddr>(frame) * kPageSize;
  ASSERT_TRUE(machine.l1().Contains(paddr));
  machine.FlushFrame(frame);
  EXPECT_FALSE(machine.l1().Contains(paddr));
  EXPECT_FALSE(machine.llc().Contains(paddr));
}

namespace daemon_test {

class CountingDaemon final : public Daemon {
 public:
  explicit CountingDaemon(SimTime period) : period_(period) {}
  [[nodiscard]] SimTime next_run() const override { return next_; }
  void Run() override {
    ++runs;
    next_ += period_;
  }
  int runs = 0;

 private:
  SimTime period_;
  SimTime next_ = 0;
};

}  // namespace daemon_test

TEST(MachineTest, IdleRunsDaemonsAtDeadlines) {
  Machine machine(SmallMachine());
  daemon_test::CountingDaemon daemon(10 * kMillisecond);
  machine.AddDaemon(&daemon);
  machine.Idle(95 * kMillisecond);
  EXPECT_GE(daemon.runs, 9);
  EXPECT_LE(daemon.runs, 11);
  EXPECT_EQ(machine.clock().now(), 95 * kMillisecond);
  machine.RemoveDaemon(&daemon);
  const int runs = daemon.runs;
  machine.Idle(50 * kMillisecond);
  EXPECT_EQ(daemon.runs, runs);
}

namespace daemon_test {

// A daemon whose deadline the test sets, recording the clock at each run.
class ScheduledDaemon final : public Daemon {
 public:
  ScheduledDaemon(Machine& machine, SimTime deadline)
      : machine_(&machine), next_(deadline) {}
  [[nodiscard]] SimTime next_run() const override { return next_; }
  void Run() override {
    runs.push_back(machine_->clock().now());
    next_ = kNever;
  }
  void set_next_run(SimTime t) { next_ = t; }
  std::vector<SimTime> runs;

 private:
  static constexpr SimTime kNever = ~SimTime{0};
  Machine* machine_;
  SimTime next_;
};

// perfbench's tracer: a wrapper takes the inner daemon's slot and forwards.
class ForwardingDaemon final : public Daemon {
 public:
  explicit ForwardingDaemon(Daemon& inner) : inner_(&inner) {}
  [[nodiscard]] SimTime next_run() const override { return inner_->next_run(); }
  void Run() override { inner_->Run(); }

 private:
  Daemon* inner_;
};

// Timed reads until `daemon` has run once; returns the clock after the first
// read that reached `deadline`, the time the daemon should have run at.
SimTime ReadUntilRun(Process& p, VirtAddr base, const ScheduledDaemon& daemon,
                     SimTime deadline) {
  const std::size_t runs = daemon.runs.size();
  SimTime due_at = 0;
  for (int i = 0; i < 100000 && daemon.runs.size() == runs; ++i) {
    p.Read64(base + static_cast<VirtAddr>(i % 512) * 64);
    if (due_at == 0 && p.machine().clock().now() >= deadline) {
      due_at = p.machine().clock().now();
    }
  }
  return due_at;
}

}  // namespace daemon_test

// The machine caches the earliest daemon deadline between timed accesses. A
// daemon added, removed or swapped for a forwarding wrapper between accesses
// must still run right after the first access that reaches its deadline, even
// while another daemon's far deadline is the one cached.
TEST(MachineTest, DaemonScheduleChangesBetweenAccessesRunAtDeadlines) {
  using daemon_test::ScheduledDaemon;
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(8, PageType::kAnonymous, false, false);
  ScheduledDaemon far(machine, 1 * kSecond);
  machine.AddDaemon(&far);
  p.Read64(base);  // caches far's deadline

  ScheduledDaemon added(machine, machine.clock().now() + 2 * kMicrosecond);
  machine.AddDaemon(&added);
  SimTime deadline = added.next_run();
  SimTime due_at = daemon_test::ReadUntilRun(p, base, added, deadline);
  ASSERT_EQ(added.runs.size(), 1u);
  EXPECT_EQ(added.runs[0], due_at);

  // Swapped for a wrapper (RemoveDaemon, then AddDaemon) with an earlier
  // deadline set while it was out of the schedule.
  machine.RemoveDaemon(&added);
  added.set_next_run(machine.clock().now() + 3 * kMicrosecond);
  daemon_test::ForwardingDaemon wrapper(added);
  machine.AddDaemon(&wrapper);
  deadline = added.next_run();
  due_at = daemon_test::ReadUntilRun(p, base, added, deadline);
  ASSERT_EQ(added.runs.size(), 2u);
  EXPECT_EQ(added.runs[1], due_at);

  // A deadline moved earlier from outside any daemon counts once reported.
  added.set_next_run(machine.clock().now() + 1 * kMicrosecond);
  machine.DaemonDeadlinesMoved();
  deadline = added.next_run();
  due_at = daemon_test::ReadUntilRun(p, base, added, deadline);
  ASSERT_EQ(added.runs.size(), 3u);
  EXPECT_EQ(added.runs[2], due_at);

  // Removed: it never runs again, though its deadline passes.
  added.set_next_run(machine.clock().now() + 1 * kMicrosecond);
  machine.RemoveDaemon(&wrapper);
  for (int i = 0; i < 2000; ++i) {
    p.Read64(base + static_cast<VirtAddr>(i % 512) * 64);
  }
  EXPECT_GT(machine.clock().now(), added.next_run());
  EXPECT_EQ(added.runs.size(), 3u);
  EXPECT_TRUE(far.runs.empty());
}

// Idle called from inside a daemon (here a phase hook of a KSM wake-up that is
// itself due) advances the clock by its duration without running daemons; it
// used to spin forever, as the running daemon stays due while it runs.
TEST(MachineTest, IdleInsideADaemonAdvancesTheClock) {
  Machine machine(SmallMachine());
  FusionConfig config;
  config.wake_period = 1 * kMillisecond;
  Ksm ksm(machine, config);
  ksm.Install();
  std::vector<SimTime> idled;
  ksm.SetPhaseHook([&](FusionEngine& engine, ScanPhase phase) {
    if (phase != ScanPhase::kQuantumStart) {
      return;
    }
    Machine& m = engine.machine();
    const SimTime before = m.clock().now();
    m.Idle(1 * kMillisecond);
    idled.push_back(m.clock().now() - before);
  });
  machine.Idle(5 * kMillisecond);
  ksm.SetPhaseHook(nullptr);
  ksm.Uninstall();
  ASSERT_FALSE(idled.empty());
  for (const SimTime d : idled) {
    EXPECT_EQ(d, 1 * kMillisecond);
  }
  EXPECT_GE(machine.clock().now(), 5 * kMillisecond);
}

TEST(MachineTest, CountHugeMappings) {
  Machine machine(SmallMachine());
  Process& p = machine.CreateProcess();
  const VirtAddr base =
      p.AllocateRegion(2 * kPagesPerHugePage, PageType::kAnonymous, false, true);
  EXPECT_EQ(machine.CountHugeMappings(), 0u);
  ASSERT_TRUE(p.SetupMapHuge(VaddrToVpn(base), 0x1));
  ASSERT_TRUE(p.SetupMapHuge(VaddrToVpn(base) + kPagesPerHugePage, 0x1000));
  EXPECT_EQ(machine.CountHugeMappings(), 2u);
  p.address_space().SplitHuge(VaddrToVpn(base));
  EXPECT_EQ(machine.CountHugeMappings(), 1u);
}

}  // namespace
}  // namespace vusion
