// Fleet-scale stepping throughput: aggregate host pages/sec when one host
// steps a >= 16-Machine fleet under the shared virtual clock, swept over fleet
// thread counts. The sweep proves two things at once: (1) the scheduling win —
// aggregate pages/sec scales with host threads (measured when the host has the
// cores, otherwise projected from per-quantum critical paths, exactly like
// bench_host_throughput's thread sweep); (2) the determinism contract — every
// Machine's simulated outcome is bit-identical at every thread count, enforced
// with a hard exit. The artifact also reports the per-Machine resident
// overhead from Fleet::CollectFootprint (lazy LLC/trace/content allocation
// keeps a booted, scanning Machine at roughly its frame table) and the fleet
// metrics rollup with machine-id labels.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/fleet/fleet.h"

namespace vusion {
namespace {

// Tunables (adjusted by --quick for the CI regression gate).
int g_repeats = 2;                     // best-of timing repeats per thread count
SimTime g_run_time = 2 * kSecond;      // simulated window per run
std::vector<std::size_t> g_threads = {1, 2, 4, 8};

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
  double projected_seconds = 0.0;             // serial-costs projection at `threads`
  std::uint64_t total_pages = 0;              // sum of pages_scanned over Machines
  std::uint64_t total_merges = 0;
  // Captured from the serial (threads=1) run only:
  MetricsSnapshot metrics;                    // machine-labeled rollup
  std::vector<fleet::Fleet::QuantumCost> quantum_costs;
  fleet::Fleet::FootprintSummary footprint;
};

RunResult RunFleet(std::size_t fleet_threads) {
  RunResult result;
  result.threads = fleet_threads;
  for (int repeat = 0; repeat < g_repeats; ++repeat) {
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
    fleet.RunFor(g_run_time);
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
        result.quantum_costs = fleet.quantum_costs();
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

double ProjectedSeconds(const std::vector<fleet::Fleet::QuantumCost>& costs,
                        std::size_t threads) {
  // Mirror of Fleet::ProjectedRuntimeNs, applied to the serial run's costs:
  // each quantum's critical path under T threads is the slower of perfect
  // division and the single slowest Machine (the barrier waits for it).
  const double t = static_cast<double>(std::max<std::size_t>(1, threads));
  double total_ns = 0.0;
  for (const fleet::Fleet::QuantumCost& q : costs) {
    total_ns += std::max(static_cast<double>(q.sum_ns) / t, static_cast<double>(q.max_ns));
  }
  return total_ns / 1e9;
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
  const std::size_t max_threads = *std::max_element(g_threads.begin(), g_threads.end());
  const bool measured_basis = host_cpus >= max_threads;
  const char* basis = measured_basis ? "measured" : "projected";

  {
    Json config = Json::Object();
    config.Set("machines", kMachines);
    config.Set("vms_per_machine", kVmsPerMachine);
    config.Set("guest_pages", kGuestPages);
    config.Set("quantum_ms", kQuantum / kMillisecond);
    config.Set("run_ms", g_run_time / kMillisecond);
    config.Set("repeats", g_repeats);
    config.Set("host_cpus", host_cpus);
    config.Set("basis", basis);
    reporter.SetConfig("fleet", std::move(config));
    reporter.SetConfig("scenario", Describe(BenchFleetConfig(1).scenario));
  }

  std::printf("fleet: %zu machines x %zu VMs, %llu ms simulated, quantum %llu ms, "
              "host has %u cpu%s (%s basis)\n\n",
              kMachines, kVmsPerMachine,
              static_cast<unsigned long long>(g_run_time / kMillisecond),
              static_cast<unsigned long long>(kQuantum / kMillisecond), host_cpus,
              host_cpus == 1 ? "" : "s", basis);
  std::printf("%8s %12s %10s %12s %10s %12s\n", "threads", "pages", "wall(s)", "meas pg/s",
              "proj(s)", "proj pg/s");

  std::vector<RunResult> runs;
  for (const std::size_t threads : g_threads) {
    RunResult r = RunFleet(threads);
    if (!runs.empty() && !(r.outcomes == runs.front().outcomes)) {
      std::fprintf(stderr,
                   "FATAL: fleet simulated outcome differs between threads=%zu and threads=%zu\n",
                   runs.front().threads, r.threads);
      std::exit(1);
    }
    runs.push_back(std::move(r));
  }
  std::printf("  (simulated outcome bit-identical across all fleet thread counts)\n");

  const std::vector<fleet::Fleet::QuantumCost>& serial_costs = runs.front().quantum_costs;
  for (RunResult& r : runs) {
    r.projected_seconds = ProjectedSeconds(serial_costs, r.threads);
  }
  // Reprint rows now that projections exist (keeps the loop above simple).
  for (const RunResult& r : runs) {
    const double meas_pps =
        r.wall_seconds > 0 ? static_cast<double>(r.total_pages) / r.wall_seconds : 0.0;
    const double proj_pps =
        r.projected_seconds > 0 ? static_cast<double>(r.total_pages) / r.projected_seconds : 0.0;
    std::printf("%8zu %12llu %10.3f %12.0f %10.3f %12.0f\n", r.threads,
                static_cast<unsigned long long>(r.total_pages), r.wall_seconds, meas_pps,
                r.projected_seconds, proj_pps);
    reporter.AddRow("runs", {{"threads", r.threads},
                             {"pages_scanned", r.total_pages},
                             {"merges", r.total_merges},
                             {"wall_seconds", r.wall_seconds},
                             {"pages_per_second", meas_pps},
                             {"projected_seconds", r.projected_seconds},
                             {"projected_pages_per_second", proj_pps}});
    reporter.AddTiming("threads_" + std::to_string(r.threads) + "_wall",
                       r.wall_seconds * 1e3);
  }

  // --- Scaling vs the 1-thread reference. ---
  std::printf("\naggregate stepping speedup vs 1 fleet thread (%s basis):\n ", basis);
  double speedup_4t = 0.0;
  for (const RunResult& r : runs) {
    const double base = measured_basis ? runs.front().wall_seconds : runs.front().projected_seconds;
    const double mine = measured_basis ? r.wall_seconds : r.projected_seconds;
    const double speedup = mine > 0 ? base / mine : 0.0;
    if (r.threads == 4) {
      speedup_4t = speedup;
    }
    std::printf("  %zut=%.2fx", r.threads, speedup);
    reporter.AddRow("fleet_speedup", {{"threads", r.threads}, {"speedup", speedup}});
  }
  std::printf("\n\nheadline: 4-thread fleet stepping speedup %.2fx (%s, target >= 3x)\n",
              speedup_4t, basis);
  reporter.AddRow("headlines", {{"name", "fleet_parallel_speedup_4t"},
                                {"value", speedup_4t},
                                {"target", 3.0},
                                {"basis", basis}});

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

void ParseArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      // CI regression gate: one repeat over a short simulated window. The
      // thread sweep keeps its full shape so bench_diff can match every
      // fleet_speedup row against the committed full-run baseline; speedup
      // ratios survive the shrink, raw counts don't.
      g_repeats = 1;
      g_run_time = 500 * kMillisecond;
    }
  }
}

}  // namespace
}  // namespace vusion

int main(int argc, char** argv) {
  // The sweep pins its own thread counts; environment overrides would
  // silently skew every run the same way and hide scaling.
  ::unsetenv("VUSION_FLEET_THREADS");
  ::unsetenv("VUSION_SCAN_THREADS");
  vusion::ParseArgs(argc, argv);
  vusion::Run();
  return 0;
}
