#include "src/kernel/machine.h"

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(MachineTest, L1CanBeDisabled) {
  MachineConfig config = SmallMachine();
  config.enable_l1 = false;
  config.latency.noise_sigma = 0.0;
  Machine machine(config);
  EXPECT_EQ(machine.l1(), nullptr);
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(4, PageType::kAnonymous, false, false);
  p.Read64(base);
  p.Read64(base + 64);
  const SimTime hot = p.TimedRead(base + 64);  // best case is an LLC hit now
  EXPECT_EQ(hot,
            machine.latency().config().llc_hit + machine.latency().config().tlb_lookup);
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
  config.enable_l1 = false;  // a disabled L1 keys nothing
  EXPECT_EQ(config.CacheKeyError(), nullptr);
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
  ASSERT_TRUE(machine.l1()->Contains(paddr));
  machine.FlushFrame(frame);
  EXPECT_FALSE(machine.l1()->Contains(paddr));
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
