// Cross-engine property test: page fusion must be semantically invisible. Under
// every engine, a randomized workload of writes, reads, and idle periods must
// always read back exactly what it wrote, copy-on-write must isolate sharers, and
// the engine's savings accounting must stay consistent.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/chaos/invariant_auditor.h"
#include "src/fusion/engine_factory.h"
#include "src/fusion/ksm.h"
#include "src/host/thread_pool.h"
#include "src/kernel/process.h"
#include "src/phys/content_isa.h"

namespace vusion {
namespace {

// Post-run oracle: the whole machine (PTEs, refcounts, TLBs, caches, engine
// structures) must be consistent after any workload.
void ExpectAuditClean(Machine& machine, FusionEngine* engine) {
  InvariantAuditor auditor(machine);
  const AuditReport report = auditor.Audit(engine);
  EXPECT_GT(report.checks, 0u);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
}

struct ParityParam {
  EngineKind kind;
  std::uint64_t seed;
};

class EngineParityTest : public ::testing::TestWithParam<ParityParam> {};

TEST_P(EngineParityTest, RandomWorkloadReadsBackWrites) {
  const ParityParam param = GetParam();
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = param.seed;
  Machine machine(machine_config);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 20 * kMillisecond;
  ScopedEngine engine(param.kind, machine, fusion_config);

  constexpr std::size_t kProcesses = 3;
  constexpr std::size_t kPagesPerProcess = 96;
  std::vector<Process*> procs;
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    Process& proc = machine.CreateProcess();
    procs.push_back(&proc);
    const VirtAddr base =
        proc.AllocateRegion(kPagesPerProcess, PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPagesPerProcess; ++i) {
      // Deliberately many cross-process duplicates: seed space of 16.
      proc.SetupMapPattern(VaddrToVpn(base) + i, 0x9000 + (i % 16));
    }
  }

  // Reference model: (process, offset) -> last written value, or the pattern seed.
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> written;
  PhysicalMemory probe(1);
  Rng rng(param.seed * 77 + 1);

  for (int step = 0; step < 1500; ++step) {
    const std::size_t p = rng.NextBelow(kProcesses);
    const std::size_t page = rng.NextBelow(kPagesPerProcess);
    const std::uint64_t offset = page * kPageSize + rng.NextBelow(kPageSize / 8) * 8;
    const VirtAddr addr = bases[p] + offset;
    switch (rng.NextBelow(4)) {
      case 0: {
        const std::uint64_t value = rng.Next();
        procs[p]->Write64(addr, value);
        written[{p, offset}] = value;
        break;
      }
      case 1: {
        const std::uint64_t got = procs[p]->Read64(addr);
        const auto it = written.find({p, offset});
        std::uint64_t want;
        if (it != written.end()) {
          want = it->second;
        } else {
          probe.FillPattern(0, 0x9000 + (page % 16));
          want = probe.ReadU64(0, offset % kPageSize);
        }
        ASSERT_EQ(got, want) << "engine=" << EngineKindName(param.kind) << " step=" << step
                             << " proc=" << p << " offset=" << offset;
        break;
      }
      case 2:
        machine.Idle(rng.NextInRange(1, 5) * kMillisecond);
        break;
      default:
        procs[p]->Prefetch(addr);
        break;
    }
  }

  // Long idle: give the engine time to fuse aggressively, then re-verify all state.
  machine.Idle(200 * kMillisecond);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    for (std::size_t page = 0; page < kPagesPerProcess; page += 7) {
      const std::uint64_t offset = page * kPageSize;
      const auto it = written.find({p, offset});
      std::uint64_t want;
      if (it != written.end()) {
        want = it->second;
      } else {
        probe.FillPattern(0, 0x9000 + (page % 16));
        want = probe.ReadU64(0, 0);
      }
      ASSERT_EQ(procs[p]->Read64(bases[p] + offset), want)
          << "engine=" << EngineKindName(param.kind) << " final proc=" << p << " page=" << page;
    }
  }

  if (engine) {
    // Savings accounting sanity: saved frames never exceed total mergeable pages.
    EXPECT_LE(engine->frames_saved(), kProcesses * kPagesPerProcess);
  }
  ExpectAuditClean(machine, engine.get());
}

std::string ParamName(const ::testing::TestParamInfo<ParityParam>& info) {
  std::string name = EngineKindName(info.param.kind);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineParityTest,
    ::testing::Values(ParityParam{EngineKind::kNone, 1}, ParityParam{EngineKind::kKsm, 1},
                      ParityParam{EngineKind::kKsm, 2}, ParityParam{EngineKind::kKsmCoA, 1},
                      ParityParam{EngineKind::kKsmZeroOnly, 1},
                      ParityParam{EngineKind::kWpf, 1}, ParityParam{EngineKind::kWpf, 2},
                      ParityParam{EngineKind::kVUsion, 1},
                      ParityParam{EngineKind::kVUsion, 2},
                      ParityParam{EngineKind::kVUsionThp, 1}),
    ParamName);

// --- Exact merge oracle ---
//
// Fusion saves exactly one frame per duplicate page. On a scenario of idle VMs
// that are never written after setup, every engine must end up saving
// sum(|group| - 1) frames over the groups of byte-identical pages. The test
// groups the pages itself — each pattern expanded into bytes, grouped by a
// std::map on the bytes — so no page hash is involved on the oracle side.

class MergeOracleTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(MergeOracleTest, FramesSavedMatchByteGroups) {
  const EngineKind kind = GetParam();
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = 99;
  Machine machine(machine_config);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 20 * kMillisecond;
  ScopedEngine engine(kind, machine, fusion_config);

  // Cross-VM duplicates (every fourth page, 6 contents) and per-VM unique pages.
  constexpr std::size_t kVms = 3;
  constexpr std::size_t kPages = 128;
  using PageBytes = std::array<std::uint8_t, kPageSize>;
  std::map<PageBytes, std::vector<std::pair<const Process*, Vpn>>> groups;
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& proc = machine.CreateProcess();
    const Vpn base = VaddrToVpn(proc.AllocateRegion(kPages, PageType::kAnonymous, true, false));
    for (std::size_t i = 0; i < kPages; ++i) {
      const std::uint64_t seed = i % 4 == 0 ? 0x4400 + (i % 24) : 0x880000 + p * 4096 + i;
      proc.SetupMapPattern(base + i, seed);
      PageBytes bytes;
      ExpandPattern(seed, bytes.data());
      groups[bytes].emplace_back(&proc, base + i);
    }
  }
  std::uint64_t want_saved = 0;
  for (const auto& [bytes, pages] : groups) {
    want_saved += pages.size() - 1;
  }
  ASSERT_EQ(want_saved, 90u);  // 96 duplicate pages in 6 contents

  machine.Idle(300 * kMillisecond);

  EXPECT_EQ(engine->frames_saved(), want_saved);
  if (const auto* ksm = dynamic_cast<const Ksm*>(engine.get()); ksm != nullptr) {
    for (const auto& [bytes, pages] : groups) {
      for (const auto& [proc, vpn] : pages) {
        EXPECT_EQ(ksm->IsMerged(*proc, vpn), pages.size() >= 2) << "vpn " << vpn;
      }
    }
  }
  ExpectAuditClean(machine, engine.get());
}

INSTANTIATE_TEST_SUITE_P(FiveEngines, MergeOracleTest,
                         ::testing::Values(EngineKind::kKsm, EngineKind::kKsmCoA,
                                           EngineKind::kWpf, EngineKind::kVUsion,
                                           EngineKind::kVUsionThp),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           std::string name = EngineKindName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Every simulated statistic a scan scenario ends with, plus the final clock.
// The clock is the strong probe: daemon wake-ups reschedule relative to the
// charged time, so any divergence in the charge (or noise-RNG) stream shows up
// in the final simulated timestamp.
struct ScanOutcome {
  std::uint64_t pages_scanned = 0;
  std::uint64_t merges = 0;
  std::uint64_t fake_merges = 0;
  std::uint64_t unmerges_cow = 0;
  std::uint64_t unmerges_coa = 0;
  std::uint64_t zero_page_merges = 0;
  std::uint64_t full_scans = 0;
  std::uint64_t frames_saved = 0;
  SimTime final_time = 0;
};

// --- Serial-vs-parallel scan parity ---
//
// FusionConfig::scan_threads parallelizes only KSM's and WPF's speculative host
// hashing (VUsion ignores it); the engine's scan body runs serially in canonical
// page order, consuming the hash stream as it completes. Everything simulated —
// stats, saved frames, the full trace event stream, and the final clock value —
// must therefore be bit-identical for every thread count, with threads=1 as the
// serial reference.
// The workload deliberately churns page contents mid-run so the parallel hashing
// races real invalidations (stale snapshots must be dropped, not installed).

struct ThreadedResult {
  ScanOutcome base;
  std::vector<TraceEvent> trace;
};

ThreadedResult RunThreadedScenario(EngineKind kind, std::uint64_t seed,
                                   std::size_t threads, std::size_t pages_per_wake) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = seed;
  Machine machine(machine_config);
  machine.trace().set_enabled(true);
  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = pages_per_wake;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 10 * kMillisecond;
  fusion_config.scan_threads = threads;
  ScopedEngine engine(kind, machine, fusion_config);

  constexpr std::size_t kVms = 3;
  constexpr std::size_t kPages = 128;
  std::vector<Process*> procs;
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& proc = machine.CreateProcess();
    procs.push_back(&proc);
    const VirtAddr base = proc.AllocateRegion(kPages, PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPages; ++i) {
      if (i % 3 == 0) {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x5100 + (i % 20));  // duplicates
      } else {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x770000 + p * 4096 + i);  // unique
      }
    }
  }

  // Deterministic churn: timed writes mutate contents (invalidating hash memos and
  // unmerging fused pages), interleaved with idle periods where the engine scans.
  Rng rng(seed * 131 + 7);
  for (int step = 0; step < 400; ++step) {
    const std::size_t p = rng.NextBelow(kVms);
    const std::size_t page = rng.NextBelow(kPages);
    if (rng.NextBelow(3) == 0) {
      machine.Idle(rng.NextInRange(1, 4) * kMillisecond);
    } else {
      procs[p]->Write64(bases[p] + page * kPageSize + rng.NextBelow(kPageSize / 8) * 8,
                        rng.Next());
    }
  }
  machine.Idle(150 * kMillisecond);

  const FusionStats& stats = engine->stats();
  ThreadedResult result;
  result.base.pages_scanned = stats.pages_scanned;
  result.base.merges = stats.merges;
  result.base.fake_merges = stats.fake_merges;
  result.base.unmerges_cow = stats.unmerges_cow;
  result.base.unmerges_coa = stats.unmerges_coa;
  result.base.zero_page_merges = stats.zero_page_merges;
  result.base.full_scans = stats.full_scans;
  result.base.frames_saved = engine->frames_saved();
  result.base.final_time = machine.clock().now();
  result.trace = machine.trace().Events();
  ExpectAuditClean(machine, engine.get());
  return result;
}

void ExpectThreadedResultsEqual(const ThreadedResult& want, const ThreadedResult& got,
                                const std::string& label) {
  EXPECT_EQ(want.base.pages_scanned, got.base.pages_scanned) << label;
  EXPECT_EQ(want.base.merges, got.base.merges) << label;
  EXPECT_EQ(want.base.fake_merges, got.base.fake_merges) << label;
  EXPECT_EQ(want.base.unmerges_cow, got.base.unmerges_cow) << label;
  EXPECT_EQ(want.base.unmerges_coa, got.base.unmerges_coa) << label;
  EXPECT_EQ(want.base.zero_page_merges, got.base.zero_page_merges) << label;
  EXPECT_EQ(want.base.full_scans, got.base.full_scans) << label;
  EXPECT_EQ(want.base.frames_saved, got.base.frames_saved) << label;
  EXPECT_EQ(want.base.final_time, got.base.final_time) << label;
  ASSERT_EQ(want.trace.size(), got.trace.size()) << label;
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    const TraceEvent& a = want.trace[i];
    const TraceEvent& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.type == b.type && a.process_id == b.process_id &&
                a.vpn == b.vpn && a.frame == b.frame)
        << label << ": event " << i << " diverged at time " << a.time << " vs " << b.time;
  }
}

struct ThreadedParam {
  ThreadedParam(EngineKind kind_in, std::uint64_t seed_in) : kind(kind_in), seed(seed_in) {}

  EngineKind kind;
  // gtest prints the parameter byte by byte into the test name, so the gap
  // after the 4-byte kind is an explicit zero field, not indeterminate padding.
  std::uint32_t unused = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<ThreadedParam>,
              "ThreadedParam must have no padding bytes");

class ScanThreadsParityTest : public ::testing::TestWithParam<ThreadedParam> {
 protected:
  void SetUp() override {
    // The TSan CI job forces scan_threads via the environment; this test owns the
    // thread count explicitly, so drop the override for the comparison to be real.
    unsetenv("VUSION_SCAN_THREADS");
  }
};

// Each input batch size streams at a different chunk size: 256-page quanta
// hash in 32-page chunks, and a quantum of at most 7 pages in 1-page chunks,
// the most interleaved stream. WPF's batch is a whole pass, whatever the
// quantum.
TEST_P(ScanThreadsParityTest, SerialAndParallelScansAreBitIdentical) {
  const ThreadedParam param = GetParam();
  for (const std::size_t pages_per_wake : {std::size_t{256}, std::size_t{7}}) {
    const ThreadedResult serial = RunThreadedScenario(param.kind, param.seed, 1, pages_per_wake);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      ExpectThreadedResultsEqual(
          serial, RunThreadedScenario(param.kind, param.seed, threads, pages_per_wake),
          "threads=" + std::to_string(threads) +
              " pages_per_wake=" + std::to_string(pages_per_wake));
    }
    // The scenario must exercise fusion and unmerge churn, not compare no-ops.
    EXPECT_GT(serial.base.merges + serial.base.fake_merges, 0u) << pages_per_wake;
    EXPECT_GT(serial.trace.size(), 0u) << pages_per_wake;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScanningEngines, ScanThreadsParityTest,
    ::testing::Values(ThreadedParam{EngineKind::kKsm, 1}, ThreadedParam{EngineKind::kKsm, 2},
                      ThreadedParam{EngineKind::kKsm, 3}, ThreadedParam{EngineKind::kWpf, 1},
                      ThreadedParam{EngineKind::kWpf, 2}, ThreadedParam{EngineKind::kWpf, 3}),
    [](const ::testing::TestParamInfo<ThreadedParam>& info) {
      std::string name = EngineKindName(info.param.kind);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_s" + std::to_string(info.param.seed);
    });

// VUSION_SCAN_THREADS takes a positive count up to ThreadPool::kMaxThreads and
// ignores anything else. Only the config is touched: no engine, no pool.
TEST(ScanThreadsEnvTest, OverrideIgnoresCountsPastTheLimit) {
  FusionConfig config;
  config.scan_threads = 3;
  setenv("VUSION_SCAN_THREADS", "1000000", 1);
  config.ApplyEnvOverrides();
  EXPECT_EQ(config.scan_threads, 3u);
  setenv("VUSION_SCAN_THREADS", "0", 1);
  config.ApplyEnvOverrides();
  EXPECT_EQ(config.scan_threads, 3u);
  setenv("VUSION_SCAN_THREADS", "256", 1);
  config.ApplyEnvOverrides();
  EXPECT_EQ(config.scan_threads, host::ThreadPool::kMaxThreads);
  unsetenv("VUSION_SCAN_THREADS");
}

// Savings comparison: with heavy duplication, every fusing engine must save a
// significant fraction, and VUsion's savings must be in the same ballpark as KSM's
// (the paper's central capacity claim).
TEST(EngineComparisonTest, SavingsBallpark) {
  std::map<EngineKind, std::uint64_t> saved;
  for (const EngineKind kind : {EngineKind::kKsm, EngineKind::kWpf, EngineKind::kVUsion}) {
    MachineConfig machine_config;
    machine_config.frame_count = 1u << 14;
    Machine machine(machine_config);
    FusionConfig fusion_config;
    fusion_config.wake_period = 1 * kMillisecond;
    fusion_config.pages_per_wake = 512;
    fusion_config.pool_frames = 1024;
    fusion_config.wpf_period = 20 * kMillisecond;
    ScopedEngine engine(kind, machine, fusion_config);
    for (int p = 0; p < 4; ++p) {
      Process& proc = machine.CreateProcess();
      const VirtAddr base = proc.AllocateRegion(256, PageType::kAnonymous, true, false);
      for (std::size_t i = 0; i < 256; ++i) {
        proc.SetupMapPattern(VaddrToVpn(base) + i, 0x7100 + i);  // same across VMs
      }
    }
    machine.Idle(500 * kMillisecond);
    saved[kind] = engine->frames_saved();
  }
  // 4 x 256 identical images: ideal saving is 3 * 256 = 768 frames.
  EXPECT_GT(saved[EngineKind::kKsm], 700u);
  EXPECT_GT(saved[EngineKind::kWpf], 700u);
  EXPECT_GT(saved[EngineKind::kVUsion], 700u);
}

}  // namespace
}  // namespace vusion
