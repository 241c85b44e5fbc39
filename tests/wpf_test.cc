#include "src/fusion/wpf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/kernel/process.h"

namespace vusion {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.frame_count = 8192;
  return config;
}

FusionConfig FastWpf() {
  FusionConfig config;
  config.wpf_period = 10 * kMillisecond;
  return config;
}

class WpfTest : public ::testing::Test {
 protected:
  WpfTest() : machine_(SmallMachine()), wpf_(machine_, FastWpf()) { wpf_.Install(); }
  ~WpfTest() override { wpf_.Uninstall(); }

  VirtAddr MapPages(Process& p, std::initializer_list<std::uint64_t> seeds) {
    // WPF needs no madvise opt-in; regions are intentionally not mergeable-marked.
    const VirtAddr base =
        p.AllocateRegion(seeds.size(), PageType::kAnonymous, /*mergeable=*/false, false);
    std::size_t i = 0;
    for (const std::uint64_t seed : seeds) {
      p.SetupMapPattern(VaddrToVpn(base) + i++, seed);
    }
    return base;
  }

  Machine machine_;
  Wpf wpf_;
};

TEST_F(WpfTest, MergesDuplicatesIntoNewFrame) {
  Process& a = machine_.CreateProcess();
  Process& b = machine_.CreateProcess();
  const VirtAddr pa = MapPages(a, {0x111});
  const VirtAddr pb = MapPages(b, {0x111});
  const FrameId fa = a.TranslateFrame(VaddrToVpn(pa));
  const FrameId fb = b.TranslateFrame(VaddrToVpn(pb));
  wpf_.RunPassNow();
  const FrameId shared = a.TranslateFrame(VaddrToVpn(pa));
  EXPECT_EQ(shared, b.TranslateFrame(VaddrToVpn(pb)));
  // Unlike KSM, the combined page is backed by a NEW frame.
  EXPECT_NE(shared, fa);
  EXPECT_NE(shared, fb);
  EXPECT_EQ(wpf_.frames_saved(), 1u);
  EXPECT_TRUE(wpf_.IsMerged(a, VaddrToVpn(pa)));
  EXPECT_EQ(a.Read64(pa), b.Read64(pb));
}

TEST_F(WpfTest, CombinedFramesComeFromEndOfMemory) {
  Process& a = machine_.CreateProcess();
  MapPages(a, {0x21, 0x21, 0x22, 0x22, 0x23, 0x23});
  wpf_.RunPassNow();
  ASSERT_EQ(wpf_.pass_allocations().size(), 1u);
  const auto& allocations = wpf_.pass_allocations()[0];
  ASSERT_EQ(allocations.size(), 3u);
  for (const FrameId f : allocations) {
    EXPECT_GT(f, machine_.config().frame_count - 16);
  }
}

TEST_F(WpfTest, SecondPassJoinsExistingCombinedPage) {
  Process& a = machine_.CreateProcess();
  MapPages(a, {0x31, 0x31});
  wpf_.RunPassNow();
  ASSERT_EQ(wpf_.frames_saved(), 1u);
  // A third copy appears later; next pass joins the existing combined entry
  // without a new allocation.
  Process& b = machine_.CreateProcess();
  const VirtAddr pb = MapPages(b, {0x31});
  wpf_.RunPassNow();
  EXPECT_EQ(wpf_.frames_saved(), 2u);
  EXPECT_TRUE(wpf_.IsMerged(b, VaddrToVpn(pb)));
  EXPECT_TRUE(wpf_.pass_allocations()[1].empty());
}

TEST_F(WpfTest, CowUnmergePreservesOtherSharer) {
  Process& a = machine_.CreateProcess();
  Process& b = machine_.CreateProcess();
  const VirtAddr pa = MapPages(a, {0x41});
  const VirtAddr pb = MapPages(b, {0x41});
  wpf_.RunPassNow();
  ASSERT_TRUE(wpf_.IsMerged(a, VaddrToVpn(pa)));
  const std::uint64_t original = b.Read64(pb);
  a.Write64(pa, 0x999);
  EXPECT_EQ(a.Read64(pa), 0x999u);
  EXPECT_EQ(b.Read64(pb), original);
  EXPECT_FALSE(wpf_.IsMerged(a, VaddrToVpn(pa)));
  EXPECT_TRUE(wpf_.IsMerged(b, VaddrToVpn(pb)));
  EXPECT_EQ(wpf_.stats().unmerges_cow, 1u);
}

TEST_F(WpfTest, FreedCombinedFramesAreReusedNextPass) {
  // The predictable-reuse property of Figure 3.
  Process& a = machine_.CreateProcess();
  const VirtAddr base = MapPages(a, {0x51, 0x51, 0x52, 0x52});
  wpf_.RunPassNow();
  const std::vector<FrameId> first = wpf_.pass_allocations()[0];
  ASSERT_EQ(first.size(), 2u);
  // Release everything via CoW.
  for (int i = 0; i < 4; ++i) {
    a.Write64(base + i * kPageSize, i);
  }
  EXPECT_EQ(wpf_.frames_saved(), 0u);
  // The attacker rewrites her (now private) pages with fresh pair-wise duplicate
  // contents - no new allocations, as in the reuse attack. The next pass's linear
  // allocator re-claims the freed end-of-memory frames (stealing through any
  // relocated pages), reproducing Figure 3's near-perfect reuse.
  PhysicalMemory& mem = machine_.memory();
  mem.FillPattern(a.TranslateFrame(VaddrToVpn(base)), 0x61);
  mem.FillPattern(a.TranslateFrame(VaddrToVpn(base) + 1), 0x61);
  mem.FillPattern(a.TranslateFrame(VaddrToVpn(base) + 2), 0x62);
  mem.FillPattern(a.TranslateFrame(VaddrToVpn(base) + 3), 0x62);
  wpf_.RunPassNow();
  const FrameId f1 = a.TranslateFrame(VaddrToVpn(base));
  const FrameId f2 = a.TranslateFrame(VaddrToVpn(base) + 2);
  ASSERT_TRUE(wpf_.IsMerged(a, VaddrToVpn(base)));
  ASSERT_TRUE(wpf_.IsMerged(a, VaddrToVpn(base) + 2));
  EXPECT_NE(f1, f2);
  EXPECT_TRUE(std::find(first.begin(), first.end(), f1) != first.end())
      << "frame " << f1 << " not reused";
  EXPECT_TRUE(std::find(first.begin(), first.end(), f2) != first.end())
      << "frame " << f2 << " not reused";
}

TEST_F(WpfTest, RunsPeriodicallyAsDaemon) {
  Process& a = machine_.CreateProcess();
  MapPages(a, {0x71, 0x71});
  machine_.Idle(25 * kMillisecond);  // > 2 periods of 10ms
  EXPECT_GE(wpf_.stats().full_scans, 2u);
  EXPECT_EQ(wpf_.frames_saved(), 1u);
}

TEST_F(WpfTest, HashCollisionsDoNotMergeDifferentContent) {
  Process& a = machine_.CreateProcess();
  const VirtAddr base = MapPages(a, {0x81, 0x82, 0x83, 0x84});
  wpf_.RunPassNow();
  EXPECT_EQ(wpf_.frames_saved(), 0u);
  // All four pages still readable with distinct contents.
  std::set<std::uint64_t> words;
  for (int i = 0; i < 4; ++i) {
    words.insert(a.Read64(base + i * kPageSize));
  }
  EXPECT_EQ(words.size(), 4u);
}

TEST_F(WpfTest, UnmapDropsReferenceAndFreesCombined) {
  Process& a = machine_.CreateProcess();
  const VirtAddr base = MapPages(a, {0x91, 0x91});
  wpf_.RunPassNow();
  ASSERT_EQ(wpf_.combined_pages(), 1u);
  a.SetupUnmap(VaddrToVpn(base));
  EXPECT_EQ(wpf_.combined_pages(), 1u);
  a.SetupUnmap(VaddrToVpn(base) + 1);
  EXPECT_EQ(wpf_.combined_pages(), 0u);
  EXPECT_EQ(wpf_.frames_saved(), 0u);
}

TEST_F(WpfTest, ThreeWayGroupMergesTogether) {
  Process& a = machine_.CreateProcess();
  const VirtAddr base = MapPages(a, {0xa1, 0xa1, 0xa1});
  wpf_.RunPassNow();
  EXPECT_EQ(wpf_.frames_saved(), 2u);
  const FrameId shared = a.TranslateFrame(VaddrToVpn(base));
  EXPECT_EQ(a.TranslateFrame(VaddrToVpn(base) + 1), shared);
  EXPECT_EQ(a.TranslateFrame(VaddrToVpn(base) + 2), shared);
  EXPECT_EQ(machine_.memory().refcount(shared), 3u);
}

}  // namespace
}  // namespace vusion
