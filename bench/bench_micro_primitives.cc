// Host-side microbenchmarks of the simulator's hot primitives (google-benchmark):
// content hashing/compare, the buddy allocator, the content-keyed red-black tree,
// each access-path layer (TLB, L1/LLC, DRAM row buffer), latency charging, and
// the full timed access path. These bound the wall-clock cost of the evaluation
// benches.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "bench/reporter.h"
#include "src/container/rbtree.h"
#include "src/dram/row_buffer.h"
#include "src/kernel/process.h"
#include "src/mmu/tlb.h"
#include "src/phys/buddy_allocator.h"
#include "src/phys/content_isa.h"
#include "src/sim/latency_model.h"

namespace vusion {
namespace {

// --- Content primitives ---
//
// One row per primitive over a full 4 KB page: the hash, the compare of two
// equal pages (it reads both pages to the end), and the zero test.

alignas(64) std::array<std::uint8_t, kPageSize> g_page_a;
alignas(64) std::array<std::uint8_t, kPageSize> g_page_b;

void FillBenchPages() {
  ExpandPattern(0xbe9c0de, g_page_a.data());
  std::memcpy(g_page_b.data(), g_page_a.data(), kPageSize);
}

void BM_HashPage(benchmark::State& state) {
  FillBenchPages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashPage(g_page_a.data()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_HashPage);

void BM_ComparePagesEqual(benchmark::State& state) {
  FillBenchPages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComparePages(g_page_a.data(), g_page_b.data()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_ComparePagesEqual);

void BM_IsZeroPage(benchmark::State& state) {
  std::memset(g_page_a.data(), 0, kPageSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsZeroPage(g_page_a.data()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_IsZeroPage);

void BM_PatternHash(benchmark::State& state) {
  PhysicalMemory mem(64);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    mem.FillPattern(0, seed++);
    benchmark::DoNotOptimize(mem.HashContent(0));
  }
}
BENCHMARK(BM_PatternHash);

void BM_CachedHash(benchmark::State& state) {
  PhysicalMemory mem(64);
  mem.FillPattern(0, 7);
  benchmark::DoNotOptimize(mem.HashContent(0));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.HashContent(0));
  }
}
BENCHMARK(BM_CachedHash);

void BM_ContentCompareEqualPatterns(benchmark::State& state) {
  PhysicalMemory mem(64);
  mem.FillPattern(0, 7);
  mem.FillPattern(1, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Compare(0, 1));
  }
}
BENCHMARK(BM_ContentCompareEqualPatterns);

void BM_ContentCompareMaterialized(benchmark::State& state) {
  PhysicalMemory mem(64);
  mem.FillPattern(0, 7);
  mem.FillPattern(1, 7);
  mem.WriteU64(0, 0, mem.ReadU64(0, 0));
  mem.WriteU64(1, 0, mem.ReadU64(1, 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Compare(0, 1));
  }
}
BENCHMARK(BM_ContentCompareMaterialized);

void BM_BuddyAllocFree(benchmark::State& state) {
  PhysicalMemory mem(1u << 14);
  BuddyAllocator buddy(mem);
  for (auto _ : state) {
    const FrameId f = buddy.Allocate();
    buddy.Free(f);
  }
}
BENCHMARK(BM_BuddyAllocFree);

struct IntCompare {
  int operator()(const int& a, const int& b) const { return (a > b) - (a < b); }
};

void BM_RbTreeInsertFind(benchmark::State& state) {
  RbTree<int, IntCompare> tree;
  int i = 0;
  for (auto _ : state) {
    tree.Insert(i);
    const int target = i / 2;
    benchmark::DoNotOptimize(
        tree.Find([target](const int& v) { return (target > v) - (target < v); }));
    ++i;
  }
}
BENCHMARK(BM_RbTreeInsertFind);

// --- Access-path layers ---
//
// One row per layer of a timed access (TLB, L1/LLC, DRAM row buffer), each
// replaying a precomputed seeded stream so the rows time the structure, not
// the generator. Streams cover a 400-page footprint, within the 90–650 pages
// of the SPEC-like workloads' footprints.

constexpr std::size_t kLayerFootprintPages = 400;
constexpr std::size_t kLayerStreamLength = std::size_t{1} << 16;

// Line addresses over 400 frames spaced page_colors() apart, so every frame
// has the same color: a uniform stream overflows the sets they share
// (miss-dominated), while sending 9 of 10 accesses to the first four pages
// keeps those lines resident (hit-dominated).
std::vector<PhysAddr> CacheStream(const CacheConfig& config, bool hit_dominated) {
  Rng rng(hit_dominated ? 11 : 12);
  std::vector<PhysAddr> stream(kLayerStreamLength);
  for (PhysAddr& paddr : stream) {
    const std::size_t pages =
        hit_dominated && rng.NextBool(0.9) ? 4 : kLayerFootprintPages;
    const std::uint64_t frame = rng.NextBelow(pages) * config.page_colors();
    paddr = frame * kPageSize + rng.NextBelow(kPageSize / config.line_size) * config.line_size;
  }
  return stream;
}

// One Llc::Access per iteration on the L1 or LLC geometry, after one warm-up
// pass over the stream; hit_frac is the measured share of hits.
void BM_CacheAccess(benchmark::State& state, CacheConfig config, bool hit_dominated) {
  const std::vector<PhysAddr> stream = CacheStream(config, hit_dominated);
  Llc cache(config);
  for (const PhysAddr paddr : stream) {
    cache.Access(paddr);
  }
  const std::uint64_t hits_before = cache.hits();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(stream[i]));
    i = (i + 1) & (kLayerStreamLength - 1);
  }
  state.counters["hit_frac"] = static_cast<double>(cache.hits() - hits_before) /
                               static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK_CAPTURE(BM_CacheAccess, l1_hit_dominated, MachineConfig{}.l1_cache, true);
BENCHMARK_CAPTURE(BM_CacheAccess, l1_miss_dominated, MachineConfig{}.l1_cache, false);
BENCHMARK_CAPTURE(BM_CacheAccess, llc_hit_dominated, CacheConfig{}, true);
BENCHMARK_CAPTURE(BM_CacheAccess, llc_miss_dominated, CacheConfig{}, false);

// One Tlb::Lookup per iteration on a machine-sized TLB. hit: a seeded stream
// over 400 cached vpns; miss_insert: every lookup misses a fresh vpn, which is
// then inserted, evicting the least recently used entry of the full TLB.
void BM_TlbLookup(benchmark::State& state, bool hit) {
  Tlb tlb(kDefaultTlbEntries);
  Vpn next = 0;
  for (; next < (hit ? kLayerFootprintPages : kDefaultTlbEntries); ++next) {
    tlb.Insert(next, Pte{static_cast<FrameId>(next), kPtePresent});
  }
  std::vector<Vpn> stream(hit ? kLayerStreamLength : 0);
  Rng rng(13);
  for (Vpn& vpn : stream) {
    vpn = rng.NextBelow(kLayerFootprintPages);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (hit) {
      benchmark::DoNotOptimize(tlb.Lookup(stream[i]));
      i = (i + 1) & (kLayerStreamLength - 1);
    } else {
      benchmark::DoNotOptimize(tlb.Lookup(next));
      tlb.Insert(next, Pte{static_cast<FrameId>(next), kPtePresent});
      ++next;
    }
  }
}
BENCHMARK_CAPTURE(BM_TlbLookup, hit, true);
BENCHMARK_CAPTURE(BM_TlbLookup, miss_insert, false);

// One RowBuffer::Access per iteration: a seeded stream of lines over 400
// consecutive frames, with the clock advancing a row miss per access so
// refresh epochs roll as they do on a machine.
void BM_RowBufferAccess(benchmark::State& state) {
  const DramMapping mapping{DramConfig{}};
  VirtualClock clock;
  RowBuffer rows(mapping, clock);
  std::vector<PhysAddr> stream(kLayerStreamLength);
  Rng rng(14);
  for (PhysAddr& paddr : stream) {
    paddr = rng.NextBelow(kLayerFootprintPages) * kPageSize + rng.NextBelow(kPageSize / 64) * 64;
  }
  const SimTime step = LatencyConfig{}.dram_row_miss;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rows.Access(stream[i]));
    clock.Advance(step);
    i = (i + 1) & (kLayerStreamLength - 1);
  }
}
BENCHMARK(BM_RowBufferAccess);

void BM_TimedProcessRead(benchmark::State& state) {
  MachineConfig config;
  config.frame_count = 1u << 14;
  Machine machine(config);
  Process& p = machine.CreateProcess();
  const VirtAddr base = p.AllocateRegion(512, PageType::kAnonymous, false, false);
  for (std::size_t i = 0; i < 512; ++i) {
    p.SetupMapPattern(VaddrToVpn(base) + i, i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Read64(base + (i % 512) * kPageSize + (i % 512) * 8));
    ++i;
  }
}
BENCHMARK(BM_TimedProcessRead);

// One LatencyModel::Charge per iteration: the charging layer's per-call cost.
// The access path charges the TLB lookup (base 1) and the level that served
// the data (14 for an LLC hit) at the default sigma; sigma 0 draws no noise;
// and switching sigma right after each refill sends the batch's other 63
// charges down the exact (libm) path.
void BM_LatencyCharge(benchmark::State& state, double sigma, SimTime base, bool exact_path) {
  LatencyConfig config;
  config.noise_sigma = sigma;
  VirtualClock clock;
  LatencyModel model(config, clock, Rng(9));
  std::int64_t charges = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Charge(base));
    if (exact_path && charges++ % LatencyModel::kNoiseBatch == 0) {
      double& current = model.mutable_config().noise_sigma;
      current = current == sigma ? 2 * sigma : sigma;
    }
  }
  benchmark::DoNotOptimize(clock.now());
}
BENCHMARK_CAPTURE(BM_LatencyCharge, sigma0.04_base1, 0.04, SimTime{1}, false);
BENCHMARK_CAPTURE(BM_LatencyCharge, sigma0.04_base14, 0.04, SimTime{14}, false);
BENCHMARK_CAPTURE(BM_LatencyCharge, sigma0_base14, 0.0, SimTime{14}, false);
BENCHMARK_CAPTURE(BM_LatencyCharge, exact_path_base14, 0.04, SimTime{14}, true);

// Mirrors every google-benchmark run into the unified BENCH_*.json artifact while
// leaving the console output exactly what ConsoleReporter prints.
class JsonBridgeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonBridgeReporter(bench::Reporter& reporter) : reporter_(reporter) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      reporter_.AddRow("benchmarks",
                       {{"name", run.benchmark_name()},
                        {"iterations", static_cast<long long>(run.iterations)},
                        {"real_time_per_iter", run.GetAdjustedRealTime()},
                        {"cpu_time_per_iter", run.GetAdjustedCPUTime()},
                        {"time_unit", benchmark::GetTimeUnitString(run.time_unit)}});
    }
  }

 private:
  bench::Reporter& reporter_;
};

}  // namespace
}  // namespace vusion

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  vusion::bench::Reporter reporter("micro_primitives");
  vusion::JsonBridgeReporter bridge(reporter);
  benchmark::RunSpecifiedBenchmarks(&bridge);
  benchmark::Shutdown();
  return 0;
}
