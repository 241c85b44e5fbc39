// Fleet-scale stepping throughput: aggregate host pages/sec when one host
// steps a >= 16-Machine fleet under the shared virtual clock, swept over fleet
// thread counts. The sweep proves two things at once: (1) the scheduling win —
// measured aggregate pages/sec against the 1-thread run, each row flagged
// "oversubscribed" when its thread count exceeds the host's CPUs (as in
// bench_host_throughput's thread sweep); (2) the determinism contract — every
// Machine's simulated outcome is bit-identical at every thread count, enforced
// with a hard exit. The artifact also reports the per-Machine resident
// overhead from Fleet::CollectFootprint (lazy LLC/trace/content allocation
// keeps a booted, scanning Machine at roughly its frame table) and the fleet
// metrics rollup with machine-id labels. The bench takes no arguments.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/fleet/fleet.h"

namespace vusion {
namespace {

constexpr int kRepeats = 2;                 // best-of timing repeats per thread count
constexpr SimTime kRunTime = 2 * kSecond;   // simulated window per run
constexpr std::array<std::size_t, 4> kThreadCounts = {1, 2, 4, 8};
constexpr std::size_t kHeadlineThreads = 4;

constexpr std::size_t kMachines = 16;  // acceptance floor: >= 16-Machine fleet
constexpr std::size_t kVmsPerMachine = 2;
constexpr std::size_t kGuestPages = 1024;  // 4 MB guests
constexpr SimTime kQuantum = 5 * kMillisecond;

// Per-machine churn workload: a third process on every Machine whose pages are
// rewritten every quantum, with the rewrite count drawn from a per-(machine,
// quantum) hash — so siblings run the same software but different dynamics,
// and the per-Machine variance table below has real spread to report.
constexpr std::size_t kChurnPages = 512;
constexpr std::uint64_t kChurnSeed = 0xc0ffee;
constexpr std::size_t kTailOffset = kPageSize - 8;
constexpr std::size_t kDuplicateGroups = 64;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ull ^ b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

fleet::FleetConfig BenchFleetConfig(std::size_t fleet_threads) {
  fleet::FleetConfig config;
  config.machine_count = kMachines;
  config.host_threads = fleet_threads;
  config.quantum = kQuantum;
  config.vms_per_machine = kVmsPerMachine;
  config.scenario.engine = EngineKind::kVUsion;
  config.scenario.machine.frame_count = 1u << 13;  // 32 MB host per Machine
  config.scenario.fusion.wake_period = 1 * kMillisecond;
  config.scenario.fusion.pages_per_wake = 256;
  config.scenario.fusion.pool_frames = 512;
  VmImageSpec base;
  base.total_pages = kGuestPages;
  VmImageSpec variant = base;
  variant.stack_seed = 7;  // second image: different stack, same layout
  config.images = {base, variant};
  return config;
}

// Everything simulated a Machine produces in a run; compared across thread
// counts (and repeats) to enforce the fleet determinism contract.
struct MachineOutcome {
  std::uint64_t pages_scanned = 0;
  std::uint64_t merges = 0;
  std::uint64_t unmerges = 0;  // CoW + CoA
  std::uint64_t zero_page_merges = 0;
  std::uint64_t frames_saved = 0;
  std::uint64_t consumed_frames = 0;
  SimTime final_time = 0;

  bool operator==(const MachineOutcome& other) const {
    return std::tie(pages_scanned, merges, unmerges, zero_page_merges, frames_saved,
                    consumed_frames, final_time) ==
           std::tie(other.pages_scanned, other.merges, other.unmerges,
                    other.zero_page_merges, other.frames_saved, other.consumed_frames,
                    other.final_time);
  }
};

struct RunResult {
  std::size_t threads = 0;
  std::vector<MachineOutcome> outcomes;       // one per Machine, id order
  double wall_seconds = 0.0;                  // best (min) over repeats
  std::uint64_t total_pages = 0;              // sum of pages_scanned over Machines
  std::uint64_t total_merges = 0;
  // Captured from the serial (threads=1) run only:
  MetricsSnapshot metrics;                    // machine-labeled rollup
  fleet::Fleet::FootprintSummary footprint;
};

RunResult RunFleet(std::size_t fleet_threads) {
  RunResult result;
  result.threads = fleet_threads;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    fleet::Fleet fleet(BenchFleetConfig(fleet_threads));
    fleet.BootAll();

    // Per-machine churn process: identical setup everywhere (deterministic,
    // pre-run, serial), then per-quantum rewrites whose count and targets are
    // hashed from (machine, quantum) — machine-local state only, so the fleet
    // determinism contract holds at any thread count.
    struct Churn {
      Process* vm = nullptr;
      VirtAddr base = 0;
      std::uint64_t quantum = 0;
    };
    std::vector<Churn> churn(fleet.size());
    for (std::size_t m = 0; m < fleet.size(); ++m) {
      Process& vm = fleet.member(m).machine().CreateProcess();
      const VirtAddr base = vm.AllocateRegion(kChurnPages, PageType::kAnonymous, true, false);
      for (std::size_t i = 0; i < kChurnPages; ++i) {
        vm.SetupMapPattern(VaddrToVpn(base) + i, kChurnSeed);
        // 1/4 intra-machine duplicates (fusion fodder); the rest unique.
        const std::uint64_t tag = i % 4 == 0 ? 0x1000000 + i % kDuplicateGroups
                                             : 0x2000000 + (static_cast<std::uint64_t>(m) << 32) + i;
        vm.Write64(base + i * kPageSize + kTailOffset, tag);
      }
      churn[m] = {&vm, base, 0};
    }
    fleet.SetQuantumHook([&churn](std::size_t m, Scenario&) {
      Churn& c = churn[m];
      const std::uint64_t writes = 16 + Mix(m, c.quantum) % 48;
      for (std::uint64_t w = 0; w < writes; ++w) {
        const std::size_t page = Mix(m ^ 0xfeedull, c.quantum * 131 + w) % kChurnPages;
        c.vm->Write64(c.base + page * kPageSize + kTailOffset,
                      0x3000000 + Mix(c.quantum, page));
      }
      ++c.quantum;
    });

    const auto start = std::chrono::steady_clock::now();
    fleet.RunFor(kRunTime);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::vector<MachineOutcome> outcomes(fleet.size());
    for (std::size_t m = 0; m < fleet.size(); ++m) {
      Scenario& member = fleet.member(m);
      const FusionStats& stats = member.engine()->stats();
      outcomes[m].pages_scanned = stats.pages_scanned;
      outcomes[m].merges = stats.merges;
      outcomes[m].unmerges = stats.unmerges_cow + stats.unmerges_coa;
      outcomes[m].zero_page_merges = stats.zero_page_merges;
      outcomes[m].frames_saved = member.engine()->frames_saved();
      outcomes[m].consumed_frames = member.consumed_frames();
      outcomes[m].final_time = member.machine().clock().now();
    }
    if (repeat == 0) {
      result.outcomes = std::move(outcomes);
      result.wall_seconds = wall_seconds;
      if (fleet_threads == 1) {
        result.metrics = fleet.CollectMetrics();
        result.footprint = fleet.CollectFootprint();
      }
    } else {
      if (!(outcomes == result.outcomes)) {
        std::fprintf(stderr,
                     "FATAL: fleet simulated outcome differs between repeats at threads=%zu\n",
                     fleet_threads);
        std::exit(1);
      }
      result.wall_seconds = std::min(result.wall_seconds, wall_seconds);
    }
  }
  for (const MachineOutcome& o : result.outcomes) {
    result.total_pages += o.pages_scanned;
    result.total_merges += o.merges;
  }
  return result;
}

struct VarianceRow {
  const char* stat;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

VarianceRow Variance(const char* stat, const std::vector<double>& values) {
  VarianceRow row;
  row.stat = stat;
  if (values.empty()) {
    return row;
  }
  row.min = *std::min_element(values.begin(), values.end());
  row.max = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  row.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (const double v : values) {
    sq += (v - row.mean) * (v - row.mean);
  }
  row.stddev = std::sqrt(sq / static_cast<double>(values.size()));
  return row;
}

void Run() {
  bench::Reporter reporter("fleet_throughput");
  reporter.Header("Fleet stepping throughput: one host, many Machines, one clock");

  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const auto oversubscribed = [host_cpus](std::size_t threads) { return threads > host_cpus; };

  {
    Json config = Json::Object();
    config.Set("machines", kMachines);
    config.Set("vms_per_machine", kVmsPerMachine);
    config.Set("guest_pages", kGuestPages);
    config.Set("quantum_ms", kQuantum / kMillisecond);
    config.Set("run_ms", kRunTime / kMillisecond);
    config.Set("repeats", kRepeats);
    config.Set("host_cpus", host_cpus);
    reporter.SetConfig("fleet", std::move(config));
    reporter.SetConfig("scenario", Describe(BenchFleetConfig(1).scenario));
  }

  std::printf("fleet: %zu machines x %zu VMs, %llu ms simulated, quantum %llu ms, "
              "host has %u cpu%s\n\n",
              kMachines, kVmsPerMachine,
              static_cast<unsigned long long>(kRunTime / kMillisecond),
              static_cast<unsigned long long>(kQuantum / kMillisecond), host_cpus,
              host_cpus == 1 ? "" : "s");
  std::printf("%8s %12s %10s %12s\n", "threads", "pages", "wall(s)", "pages/s");

  std::vector<RunResult> runs;
  for (const std::size_t threads : kThreadCounts) {
    RunResult r = RunFleet(threads);
    if (!runs.empty() && !(r.outcomes == runs.front().outcomes)) {
      std::fprintf(stderr,
                   "FATAL: fleet simulated outcome differs between threads=%zu and threads=%zu\n",
                   runs.front().threads, r.threads);
      std::exit(1);
    }
    const double pps =
        r.wall_seconds > 0 ? static_cast<double>(r.total_pages) / r.wall_seconds : 0.0;
    std::printf("%8zu %12llu %10.3f %12.0f\n", r.threads,
                static_cast<unsigned long long>(r.total_pages), r.wall_seconds, pps);
    reporter.AddRow("runs", {{"threads", r.threads},
                             {"pages_scanned", r.total_pages},
                             {"merges", r.total_merges},
                             {"wall_seconds", r.wall_seconds},
                             {"pages_per_second", pps},
                             {"oversubscribed", oversubscribed(r.threads)}});
    reporter.AddTiming("threads_" + std::to_string(r.threads) + "_wall",
                       r.wall_seconds * 1e3);
    runs.push_back(std::move(r));
  }
  std::printf("  (simulated outcome bit-identical across all fleet thread counts)\n");

  // --- Measured scaling vs the 1-thread run. ---
  std::printf("\nmeasured aggregate stepping speedup vs 1 fleet thread "
              "(* = oversubscribed):\n ");
  double speedup_4t = 0.0;
  for (const RunResult& r : runs) {
    const double speedup = r.wall_seconds > 0 ? runs.front().wall_seconds / r.wall_seconds : 0.0;
    if (r.threads == kHeadlineThreads) {
      speedup_4t = speedup;
    }
    std::printf("  %zut=%.2fx%s", r.threads, speedup, oversubscribed(r.threads) ? "*" : "");
    reporter.AddRow("fleet_speedup", {{"threads", r.threads},
                                      {"speedup", speedup},
                                      {"oversubscribed", oversubscribed(r.threads)}});
  }
  std::printf("\n\nheadline: %zu-thread fleet stepping speedup %.2fx (measured%s, "
              "target >= 3x)\n",
              kHeadlineThreads, speedup_4t,
              oversubscribed(kHeadlineThreads) ? ", oversubscribed" : "");
  reporter.AddRow("headlines", {{"name", "fleet_parallel_speedup_4t"},
                                {"value", speedup_4t},
                                {"target", 3.0},
                                {"oversubscribed", oversubscribed(kHeadlineThreads)}});

  // --- Per-Machine variance: same images, per-Machine RNG streams. ---
  const RunResult& serial = runs.front();
  std::vector<double> pages, merges, unmerges, saved;
  pages.reserve(serial.outcomes.size());
  merges.reserve(serial.outcomes.size());
  unmerges.reserve(serial.outcomes.size());
  saved.reserve(serial.outcomes.size());
  for (const MachineOutcome& o : serial.outcomes) {
    pages.push_back(static_cast<double>(o.pages_scanned));
    merges.push_back(static_cast<double>(o.merges));
    unmerges.push_back(static_cast<double>(o.unmerges));
    saved.push_back(static_cast<double>(o.frames_saved));
  }
  std::printf("\nper-Machine variance over %zu machines (min / mean / max, stddev):\n",
              serial.outcomes.size());
  for (const VarianceRow& row : {Variance("pages_scanned", pages), Variance("merges", merges),
                                 Variance("unmerges", unmerges),
                                 Variance("frames_saved", saved)}) {
    std::printf("  %-14s %10.0f / %10.1f / %10.0f   sd %.1f\n", row.stat, row.min, row.mean,
                row.max, row.stddev);
    reporter.AddRow("machine_variance", {{"stat", row.stat},
                                         {"min", row.min},
                                         {"mean", row.mean},
                                         {"max", row.max},
                                         {"stddev", row.stddev}});
  }

  // --- Per-Machine resident overhead (the frugality acceptance criterion). ---
  const fleet::Fleet::FootprintSummary& fp = serial.footprint;
  std::printf("\nresident footprint after the run: %.2f MB total, %.0f KB mean / %zu KB max "
              "per Machine, %zu KB shared templates\n",
              static_cast<double>(fp.total_bytes) / (1024.0 * 1024.0),
              fp.mean_machine_bytes() / 1024.0, fp.max_machine_bytes / 1024, fp.template_bytes / 1024);
  reporter.AddRow("footprint", {{"machines", fp.machines},
                                {"total_bytes", fp.total_bytes},
                                {"mean_machine_bytes", fp.mean_machine_bytes()},
                                {"max_machine_bytes", fp.max_machine_bytes},
                                {"template_bytes", fp.template_bytes}});
  reporter.AddMetrics("fleet", serial.metrics);

  const std::string path = reporter.WriteJson();
  if (!path.empty()) {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace vusion

int main() {
  // The sweep pins its own thread counts; environment overrides would
  // silently skew every run the same way and hide scaling.
  ::unsetenv("VUSION_FLEET_THREADS");
  ::unsetenv("VUSION_SCAN_THREADS");
  vusion::Run();
  return 0;
}
