// Frame-accounting property test: after an arbitrary workload, every allocated
// physical frame must be owned by exactly one party - a process mapping (shared
// mappings count once), a page-table node, the engine's entropy pool, the deferred
// free queue, or the swap cache backing. Catches frame leaks and double-ownership
// across all engines.

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "src/fusion/engine_factory.h"
#include "src/fusion/ksm.h"
#include "src/fusion/memory_combining.h"
#include "src/fusion/vusion_engine.h"
#include "src/fusion/wpf.h"
#include "src/kernel/process.h"

namespace vusion {
namespace {

struct Audit {
  std::set<FrameId> mapped;       // data frames reachable from any PTE
  std::set<FrameId> page_tables;  // frames backing table nodes
  std::set<FrameId> engine_held;  // pool slots, deferred queue, swap cache
  std::size_t double_owned = 0;
};

Audit Collect(Machine& machine, FusionEngine* engine) {
  Audit audit;
  for (const auto& process : machine.processes()) {
    if (process == nullptr) {
      continue;
    }
    auto& table = process->address_space().page_table();
    std::vector<FrameId> nodes;
    table.CollectNodeFrames(nodes);
    audit.page_tables.insert(nodes.begin(), nodes.end());
    table.ForEachEntry(0, Vpn{1} << 36, [&](Vpn, Pte& pte) {
      if (pte.frame == kInvalidFrame) {
        return;  // swapped-out marker
      }
      if (pte.huge()) {
        for (FrameId f = pte.frame; f < pte.frame + kPagesPerHugePage; ++f) {
          audit.mapped.insert(f);
        }
      } else {
        audit.mapped.insert(pte.frame);
      }
    });
  }
  auto add_engine_frames = [&audit](const std::vector<FrameId>& frames) {
    for (const FrameId f : frames) {
      if (!audit.engine_held.insert(f).second) {
        ++audit.double_owned;
      }
    }
  };
  if (auto* vusion = dynamic_cast<VUsionEngine*>(engine)) {
    add_engine_frames(vusion->pool().slots());
    add_engine_frames(vusion->deferred_queue().pending_frames());
  }
  if (auto* mc = dynamic_cast<MemoryCombining*>(engine)) {
    add_engine_frames(mc->cache_backing());
  }
  return audit;
}

void CheckAudit(Machine& machine, FusionEngine* engine) {
  const Audit audit = Collect(machine, engine);
  EXPECT_EQ(audit.double_owned, 0u);
  std::set<FrameId> all;
  std::size_t overlaps = 0;
  for (const auto* set : {&audit.mapped, &audit.page_tables, &audit.engine_held}) {
    for (const FrameId f : *set) {
      EXPECT_TRUE(machine.memory().allocated(f)) << "owner holds a free frame " << f;
      if (!all.insert(f).second) {
        ++overlaps;
      }
    }
  }
  EXPECT_EQ(overlaps, 0u) << "a frame has two distinct owners";
  // No leaks: every allocated frame has an owner.
  EXPECT_EQ(all.size(), machine.memory().allocated_count());
}

struct AuditParam {
  AuditParam(EngineKind kind_in, std::uint64_t seed_in) : kind(kind_in), seed(seed_in) {}

  EngineKind kind;
  // gtest prints the parameter byte by byte into the test name, so the gap
  // between the 4-byte kind and the seed is an explicit zero field: padding
  // would hold indeterminate bytes and make the name vary between builds.
  std::uint32_t unused = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<AuditParam>,
              "AuditParam must have no padding bytes");

class FrameAuditTest : public ::testing::TestWithParam<AuditParam> {};

TEST_P(FrameAuditTest, NoLeaksNoDoubleOwnership) {
  const AuditParam param = GetParam();
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = param.seed;
  Machine machine(machine_config);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 512;
  fusion_config.wpf_period = 10 * kMillisecond;
  // Permanent pressure so the MemoryCombining variant actually swaps.
  fusion_config.mc_low_watermark = machine_config.frame_count;
  auto engine = MakeEngine(param.kind, machine, fusion_config);
  if (engine != nullptr) {
    engine->Install();
  }

  // Random workload: map, write, read, idle, unmap, huge-map.
  constexpr std::size_t kPages = 512;
  Process& a = machine.CreateProcess();
  Process& b = machine.CreateProcess();
  const VirtAddr base_a = a.AllocateRegion(kPages, PageType::kAnonymous, true, false);
  const VirtAddr base_b = b.AllocateRegion(kPages, PageType::kAnonymous, true, true);
  Rng rng(param.seed * 13 + 5);
  for (std::size_t i = 0; i < kPages; ++i) {
    a.SetupMapPattern(VaddrToVpn(base_a) + i, 0x5000 + (i % 32));
    b.SetupMapPattern(VaddrToVpn(base_b) + i, 0x5000 + (i % 32));
  }
  std::vector<Process*> children;
  for (int step = 0; step < 800; ++step) {
    const std::size_t page = rng.NextBelow(kPages);
    Process& proc = rng.NextBool(0.5) ? a : b;
    const VirtAddr base = (&proc == &a) ? base_a : base_b;
    switch (rng.NextBelow(6)) {
      case 0:
        proc.Write64(base + page * kPageSize, step);
        break;
      case 1:
        // Reads of previously-unmapped pages demand-fault a fresh zero page.
        proc.Read64(base + page * kPageSize);
        break;
      case 2:
        machine.Idle(rng.NextInRange(1, 4) * kMillisecond);
        break;
      case 3:
        if (&proc == &a) {
          a.SetupUnmap(VaddrToVpn(base_a) + page);  // no-op if already unmapped
        }
        break;
      case 4:
        proc.Prefetch(base + page * kPageSize);
        break;
      default:
        // Occasional fork/exit churn: children share CoW with b, dirty a few
        // pages, and half of them exit again.
        if (children.size() < 4) {
          Process& child = machine.ForkProcess(b);
          child.Write64(base_b + page * kPageSize, step);
          children.push_back(&child);
        } else {
          machine.DestroyProcess(*children.back());
          children.pop_back();
        }
        break;
    }
  }
  machine.Idle(50 * kMillisecond);
  CheckAudit(machine, engine.get());
  if (engine != nullptr) {
    engine->Uninstall();
  }
}

std::string AuditName(const ::testing::TestParamInfo<AuditParam>& info) {
  std::string name = EngineKindName(info.param.kind);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name + "_s" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, FrameAuditTest,
    ::testing::Values(AuditParam{EngineKind::kNone, 1}, AuditParam{EngineKind::kKsm, 1},
                      AuditParam{EngineKind::kKsm, 2}, AuditParam{EngineKind::kWpf, 1},
                      AuditParam{EngineKind::kVUsion, 1}, AuditParam{EngineKind::kVUsion, 2},
                      AuditParam{EngineKind::kVUsionThp, 1},
                      AuditParam{EngineKind::kMemoryCombining, 1}),
    AuditName);

}  // namespace
}  // namespace vusion
