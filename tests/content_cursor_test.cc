// Unit tests for the fusion-shared machinery: the round-robin ScanCursor, the
// latency-charged content operations, and the deferred-free queue.

#include "src/fusion/content.h"

#include <gtest/gtest.h>

#include "src/fusion/deferred_free.h"
#include "src/kernel/process.h"

namespace vusion {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.frame_count = 4096;
  return config;
}

TEST(ScanCursorTest, EmptyMachineYieldsNothing) {
  Machine machine(SmallMachine());
  ScanCursor cursor(machine);
  Process* p = nullptr;
  Vpn vpn = 0;
  bool wrapped = false;
  EXPECT_FALSE(cursor.Next(p, vpn, wrapped));
}

TEST(ScanCursorTest, SkipsNonMergeableVmas) {
  Machine machine(SmallMachine());
  Process& proc = machine.CreateProcess();
  proc.AllocateRegion(8, PageType::kAnonymous, /*mergeable=*/false, false);
  ScanCursor cursor(machine);
  Process* p = nullptr;
  Vpn vpn = 0;
  bool wrapped = false;
  EXPECT_FALSE(cursor.Next(p, vpn, wrapped));
}

TEST(ScanCursorTest, RoundRobinAndWrapDetection) {
  Machine machine(SmallMachine());
  Process& a = machine.CreateProcess();
  Process& b = machine.CreateProcess();
  const VirtAddr base_a = a.AllocateRegion(3, PageType::kAnonymous, true, false);
  const VirtAddr base_b = b.AllocateRegion(2, PageType::kAnonymous, true, false);
  ScanCursor cursor(machine);
  std::vector<std::pair<std::uint32_t, Vpn>> seen;
  int wraps = 0;
  for (int i = 0; i < 10; ++i) {
    Process* p = nullptr;
    Vpn vpn = 0;
    bool wrapped = false;
    ASSERT_TRUE(cursor.Next(p, vpn, wrapped));
    wraps += wrapped ? 1 : 0;
    seen.emplace_back(p->id(), vpn);
  }
  // 5 mergeable pages: exactly two rounds in 10 steps.
  EXPECT_EQ(wraps, 1);
  EXPECT_EQ(seen[0], (std::pair<std::uint32_t, Vpn>{0, VaddrToVpn(base_a)}));
  EXPECT_EQ(seen[3], (std::pair<std::uint32_t, Vpn>{1, VaddrToVpn(base_b)}));
  EXPECT_EQ(seen[5], seen[0]);  // second round revisits in the same order
  EXPECT_EQ(seen[9], seen[4]);
}

TEST(ScanCursorTest, PicksUpVmasAddedMidScan) {
  Machine machine(SmallMachine());
  Process& a = machine.CreateProcess();
  a.AllocateRegion(2, PageType::kAnonymous, true, false);
  ScanCursor cursor(machine);
  Process* p = nullptr;
  Vpn vpn = 0;
  bool wrapped = false;
  ASSERT_TRUE(cursor.Next(p, vpn, wrapped));
  // A new mergeable region appears (e.g. a VM boots).
  const VirtAddr late = a.AllocateRegion(2, PageType::kAnonymous, true, false);
  std::set<Vpn> visited;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cursor.Next(p, vpn, wrapped));
    visited.insert(vpn);
  }
  EXPECT_TRUE(visited.contains(VaddrToVpn(late)));
}

TEST(ScanCursorTest, SkipsDestroyedProcesses) {
  Machine machine(SmallMachine());
  Process& a = machine.CreateProcess();
  Process& b = machine.CreateProcess();
  a.AllocateRegion(2, PageType::kAnonymous, true, false);
  b.AllocateRegion(2, PageType::kAnonymous, true, false);
  machine.DestroyProcess(a);
  ScanCursor cursor(machine);
  for (int i = 0; i < 6; ++i) {
    Process* p = nullptr;
    Vpn vpn = 0;
    bool wrapped = false;
    ASSERT_TRUE(cursor.Next(p, vpn, wrapped));
    EXPECT_EQ(p->id(), b.id());
  }
}

TEST(ChargedContentTest, OperationsAdvanceTheClock) {
  Machine machine(SmallMachine());
  machine.memory().MarkAllocated(0);
  machine.memory().MarkAllocated(1);
  machine.memory().FillPattern(0, 1);
  machine.memory().FillPattern(1, 2);
  ChargedContent content(machine);
  const SimTime t0 = machine.clock().now();
  content.Hash(0);
  const SimTime t1 = machine.clock().now();
  EXPECT_GT(t1, t0);
  EXPECT_FALSE(content.Matches(0, 1));
  const SimTime t2 = machine.clock().now();
  EXPECT_GT(t2, t1);
  content.ChargeTreeDescend(5);
  const SimTime t3 = machine.clock().now();
  EXPECT_GT(t3, t2);
  // An empty tree costs no descent at all.
  content.ChargeTreeDescend(0);
  EXPECT_EQ(machine.clock().now(), t3);
}

TEST(DeferredFreeQueueTest, DrainReleasesToSinkAndCountsDummies) {
  Machine machine(SmallMachine());
  DeferredFreeQueue queue(machine);
  const FrameId f1 = machine.buddy().Allocate();
  const FrameId f2 = machine.buddy().Allocate();
  const std::size_t free_before = machine.buddy().free_count();
  queue.Push(f1);
  queue.PushDummy();
  queue.Push(f2);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.dummies_pushed(), 1u);
  EXPECT_EQ(machine.buddy().free_count(), free_before);  // nothing freed yet
  queue.Drain(machine.buddy());
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.dummies_pushed(), 0u);
  EXPECT_EQ(machine.buddy().free_count(), free_before + 2);
}

TEST(DeferredFreeQueueTest, PushAndDummyCostTheSame) {
  // The Same Behaviour property the queue exists for: both operations charge one
  // identical queue_op.
  MachineConfig config = SmallMachine();
  config.latency.noise_sigma = 0.0;
  Machine machine(config);
  DeferredFreeQueue queue(machine);
  const FrameId f = machine.buddy().Allocate();
  const SimTime t0 = machine.clock().now();
  queue.Push(f);
  const SimTime push_cost = machine.clock().now() - t0;
  const SimTime t1 = machine.clock().now();
  queue.PushDummy();
  const SimTime dummy_cost = machine.clock().now() - t1;
  EXPECT_EQ(push_cost, dummy_cost);
  queue.Drain(machine.buddy());
}

}  // namespace
}  // namespace vusion
