// Host (wall-clock) scan throughput. Two experiments, one JSON:
//
// 1. Per-engine scan throughput on the diverse-VM scenario, best-of-N wall
//    time per engine so scheduler jitter does not set the number.
//
// 2. A 1, 2, 4, 8 thread sweep of KSM's and WPF's streaming scan pipeline
//    (FusionConfig::scan_threads; VUsion scans serially and ignores it) on a
//    churn variant of the same scenario where guests keep dirtying their
//    unique pages, so per-wake content hashing — the work the pipeline
//    spreads across workers — dominates the scan path. The sweep reports the
//    pipeline's overlap accounting: phase-1 wall span, pure merge time, and
//    the overlap efficiency
//    1 - scan_wall / (phase1_wall + merge_wall) — 0 when hashing and merging
//    strictly serialize, approaching the ideal as the merge consumer hides
//    behind in-flight hash chunks.
//
// Both experiments measure the simulator's own cost, not modeled latency:
// simulated statistics and charged latencies are bit-identical across repeats
// and thread counts (the bench re-checks this; engine_parity_test proves it).
// Every speedup is measured on this host: scan-section throughput
// (ScanTiming::scan_ns) at T threads over the 1-thread cell. A sweep, speedup
// or headline row whose thread count exceeds the host's CPUs is flagged
// "oversubscribed"; tools/bench_diff.py does not judge such rows. The headline
// is WPF's 4-thread speedup: KSM's ratio spreads too widely between runs for a
// regression gate (DESIGN.md §12). The bench takes no arguments; results go to
// stdout and BENCH_host_throughput.json.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

namespace vusion {
namespace {

constexpr std::size_t kVms = 4;            // 2-4 VMs per the harness spec
constexpr std::size_t kGuestPages = 4096;  // 16 MB guests

constexpr SimTime kRunTime = 120 * kSecond;
constexpr int kRepeats = 3;  // best-of-N: min wall time per configuration
constexpr std::size_t kChurnSteps = 40;
constexpr std::array<std::size_t, 4> kThreadCounts = {1, 2, 4, 8};
constexpr std::size_t kHeadlineThreads = 4;

// Diverse-VM content model: near-duplicate pages. Every page shares one long
// common prefix (think zeroed-then-initialized structures, common library/page
// cache contents) and differs only in a trailing 8-byte tag: one quarter are
// cross-VM duplicate groups (fusable), the rest unique per (vm, page). A byte
// comparison of two such pages scans ~4 KB before the first differing byte; the
// fingerprint-ordered trees settle almost every step with one cached-hash
// integer compare.
constexpr std::uint64_t kCommonSeed = 0xc0ffee;
constexpr std::size_t kTailOffset = kPageSize - 8;
constexpr std::size_t kDuplicateGroups = 512;

// Churn sweep: smaller guests, more steps. Each step rewrites the tag of every
// unique page (duplicates stay merged), so the next scan round re-hashes ~3/4 of
// all pages — the hash-bound regime the parallel pipeline targets.
constexpr std::size_t kChurnGuestPages = 2048;
constexpr SimTime kChurnStepTime = 500 * kMillisecond;

struct SimOutcome {
  std::uint64_t pages_scanned = 0;
  std::uint64_t merges = 0;
  std::uint64_t frames_saved = 0;

  bool operator==(const SimOutcome&) const = default;
};

struct RunResult {
  std::string engine;
  SimOutcome sim;
  double wall_seconds = 0.0;
  double pages_per_second = 0.0;
  double end_to_end_seconds = 0.0;  // whole scenario incl. boot
};

struct SweepResult {
  std::string engine;
  std::size_t threads = 1;
  SimOutcome sim;
  double wall_seconds = 0.0;        // whole churn loop (writes + scans)
  double scan_seconds = 0.0;        // scan sections only (ScanTiming::scan_ns)
  double phase1_wall_seconds = 0.0; // phase-1 span (first resolve .. last chunk)
  double merge_wall_seconds = 0.0;  // pure merge time (excludes help/wait)
  // 1 - scan_wall / (phase1_wall + merge_wall): 0 = hashing and merging fully
  // serialized, higher = merge hidden behind hashing.
  double overlap_efficiency = 0.0;
  std::uint64_t speculative_hashes = 0;
  std::uint64_t speculative_stale = 0;
  std::uint64_t items = 0;
  double pages_per_second = 0.0;    // items / scan_seconds
};

SimOutcome CaptureOutcome(Scenario& scenario) {
  SimOutcome out;
  out.pages_scanned = scenario.engine()->stats().pages_scanned;
  out.merges = scenario.engine()->stats().merges;
  out.frames_saved = scenario.engine()->frames_saved();
  return out;
}

ScenarioConfig ThroughputScenario(EngineKind kind) {
  ScenarioConfig config = EvalScenario(kind);
  config.machine.frame_count = 1u << 17;  // 512 MB host
  config.fusion.pages_per_wake = 400;     // scan-heavy: stress the hot path
  config.fusion.pool_frames = 8192;
  return config;
}

RunResult RunOnce(EngineKind kind) {
  const auto t0 = std::chrono::steady_clock::now();
  Scenario scenario(ThroughputScenario(kind));
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& vm = scenario.machine().CreateProcess();
    const VirtAddr base =
        vm.AllocateRegion(kGuestPages, PageType::kAnonymous, true, false);
    for (std::size_t i = 0; i < kGuestPages; ++i) {
      vm.SetupMapPattern(VaddrToVpn(base) + i, kCommonSeed);
      // The tail write materializes the page: common prefix + distinguishing tag.
      const bool duplicate = i % 4 == 0;
      const std::uint64_t tag = duplicate
                                    ? 0x1000000 + i % kDuplicateGroups
                                    : 0x2000000 + (p << 32) + i;
      vm.Write64(base + i * kPageSize + kTailOffset, tag);
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  scenario.RunFor(kRunTime);
  const auto t2 = std::chrono::steady_clock::now();

  RunResult result;
  result.engine = scenario.engine()->name();
  result.sim = CaptureOutcome(scenario);
  result.wall_seconds = std::chrono::duration<double>(t2 - t1).count();
  result.pages_per_second =
      result.wall_seconds > 0 ? static_cast<double>(result.sim.pages_scanned) / result.wall_seconds
                              : 0.0;
  result.end_to_end_seconds = std::chrono::duration<double>(t2 - t0).count();
  return result;
}

// Best-of-kRepeats wall time. Simulated outcomes must agree across repeats
// (the simulator is deterministic); the bench aborts loudly otherwise.
RunResult RunBest(EngineKind kind) {
  RunResult best = RunOnce(kind);
  for (int r = 1; r < kRepeats; ++r) {
    RunResult next = RunOnce(kind);
    if (!(next.sim == best.sim)) {
      std::fprintf(stderr, "FATAL: nondeterministic outcome for %s\n", next.engine.c_str());
      std::exit(1);
    }
    if (next.wall_seconds < best.wall_seconds) {
      best = std::move(next);
    }
  }
  return best;
}

SweepResult RunSweepOnce(EngineKind kind, std::size_t threads) {
  ScenarioConfig config = ThroughputScenario(kind);
  config.fusion.scan_threads = threads;
  config.fusion.wpf_period = 2 * kSecond;  // several full passes within the churn window
  Scenario scenario(config);
  std::vector<std::pair<Process*, VirtAddr>> vms;
  for (std::size_t p = 0; p < kVms; ++p) {
    Process& vm = scenario.machine().CreateProcess();
    const VirtAddr base =
        vm.AllocateRegion(kChurnGuestPages, PageType::kAnonymous, true, false);
    for (std::size_t i = 0; i < kChurnGuestPages; ++i) {
      vm.SetupMapPattern(VaddrToVpn(base) + i, kCommonSeed);
      const bool duplicate = i % 4 == 0;
      const std::uint64_t tag = duplicate
                                    ? 0x1000000 + i % kDuplicateGroups
                                    : 0x2000000 + (p << 32) + i;
      vm.Write64(base + i * kPageSize + kTailOffset, tag);
    }
    vms.emplace_back(&vm, base);
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t step = 0; step < kChurnSteps; ++step) {
    // Rewrite every unique page's tag; merged duplicates are left alone so the
    // churn does not trigger COW unmerges, only re-hashing on the next scan.
    for (std::size_t p = 0; p < vms.size(); ++p) {
      for (std::size_t i = 0; i < kChurnGuestPages; ++i) {
        if (i % 4 == 0) continue;
        vms[p].first->Write64(vms[p].second + i * kPageSize + kTailOffset,
                              0x3000000 + (p << 40) + (i << 8) + step);
      }
    }
    scenario.RunFor(kChurnStepTime);
  }
  const auto t1 = std::chrono::steady_clock::now();

  SweepResult result;
  result.engine = scenario.engine()->name();
  result.threads = threads;
  result.sim = CaptureOutcome(scenario);
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  const host::ScanTiming* timing = scenario.engine()->scan_timing();
  if (timing != nullptr) {
    result.scan_seconds = timing->scan_ns * 1e-9;
    result.phase1_wall_seconds = timing->phase1_wall_ns * 1e-9;
    result.merge_wall_seconds = timing->merge_wall_ns * 1e-9;
    result.speculative_hashes = timing->speculative_hashes;
    result.speculative_stale = timing->speculative_stale;
    result.items = timing->items;
  }
  const double serial_sum = result.phase1_wall_seconds + result.merge_wall_seconds;
  result.overlap_efficiency =
      serial_sum > 0 ? std::max(0.0, 1.0 - result.scan_seconds / serial_sum) : 0.0;
  result.pages_per_second =
      result.scan_seconds > 0 ? static_cast<double>(result.items) / result.scan_seconds : 0.0;
  return result;
}

SweepResult RunSweep(EngineKind kind, std::size_t threads) {
  SweepResult best = RunSweepOnce(kind, threads);
  for (int r = 1; r < kRepeats; ++r) {
    SweepResult next = RunSweepOnce(kind, threads);
    if (!(next.sim == best.sim) || next.items != best.items) {
      std::fprintf(stderr, "FATAL: nondeterministic outcome for %s threads=%zu\n",
                   next.engine.c_str(), threads);
      std::exit(1);
    }
    if (next.scan_seconds < best.scan_seconds) {
      best = next;
    }
  }
  return best;
}

void Run() {
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const auto oversubscribed = [host_cpus](std::size_t threads) { return threads > host_cpus; };
  bench::Reporter reporter("host_throughput");

  // --- Experiment 1: per-engine scan throughput (best-of-N). ---
  reporter.Header("Host scan throughput: diverse-VM scenario");
  {
    Json scenario = Json::Object();
    scenario.Set("vms", kVms);
    scenario.Set("guest_pages", kGuestPages);
    scenario.Set("sim_seconds", kRunTime / kSecond);
    scenario.Set("repeats", kRepeats);
    reporter.SetConfig("scenario", std::move(scenario));
  }
  const std::array<EngineKind, 4> engines = {EngineKind::kKsm, EngineKind::kWpf,
                                             EngineKind::kVUsion, EngineKind::kVUsionThp};
  std::vector<RunResult> results;
  std::printf("%-12s %12s %10s %14s %10s\n", "engine", "scanned", "wall(s)", "pages/s",
              "e2e(s)");
  for (const EngineKind kind : engines) {
    RunResult r = RunBest(kind);
    std::printf("%-12s %12llu %10.3f %14.0f %10.3f\n", r.engine.c_str(),
                static_cast<unsigned long long>(r.sim.pages_scanned), r.wall_seconds,
                r.pages_per_second, r.end_to_end_seconds);
    results.push_back(std::move(r));
  }

  // --- Experiment 2: scan_threads sweep on the churn scenario. ---
  reporter.Header("Parallel scan pipeline: scan_threads sweep (churn scenario, streaming)");
  std::printf("%-12s %8s %12s %9s %9s %9s %6s %12s\n", "engine", "threads", "items",
              "scan(s)", "p1wall(s)", "merge(s)", "ovl%", "pages/s");
  std::vector<std::vector<SweepResult>> sweeps;
  for (const EngineKind kind : {EngineKind::kKsm, EngineKind::kWpf}) {
    std::vector<SweepResult> series;
    for (const std::size_t threads : kThreadCounts) {
      SweepResult r = RunSweep(kind, threads);
      if (!series.empty() && !(r.sim == series.front().sim)) {
        std::fprintf(stderr,
                     "FATAL: %s simulated outcome differs between threads=%zu and threads=%zu\n",
                     r.engine.c_str(), series.front().threads, r.threads);
        std::exit(1);
      }
      std::printf("%-12s %8zu %12llu %9.3f %9.3f %9.3f %5.1f%% %12.0f\n", r.engine.c_str(),
                  r.threads, static_cast<unsigned long long>(r.items), r.scan_seconds,
                  r.phase1_wall_seconds, r.merge_wall_seconds, r.overlap_efficiency * 100.0,
                  r.pages_per_second);
      series.push_back(std::move(r));
    }
    std::printf("  %s: simulated outcome identical across all thread counts\n",
                series.front().engine.c_str());
    sweeps.push_back(std::move(series));
  }

  // --- Reporter rows + stdout summary. ---
  {
    Json sweep_config = Json::Object();
    sweep_config.Set("vms", kVms);
    sweep_config.Set("guest_pages", kChurnGuestPages);
    sweep_config.Set("churn_steps", kChurnSteps);
    sweep_config.Set("step_ms", kChurnStepTime / kMillisecond);
    sweep_config.Set("repeats", kRepeats);
    sweep_config.Set("host_cpus", host_cpus);
    reporter.SetConfig("threads_sweep", std::move(sweep_config));
  }
  for (const RunResult& r : results) {
    reporter.AddRow("runs", {{"engine", r.engine},
                             {"pages_scanned", r.sim.pages_scanned},
                             {"merges", r.sim.merges},
                             {"frames_saved", r.sim.frames_saved},
                             {"wall_seconds", r.wall_seconds},
                             {"pages_per_second", r.pages_per_second},
                             {"end_to_end_seconds", r.end_to_end_seconds}});
    reporter.AddTiming(r.engine + "_wall", r.wall_seconds * 1e3);
  }

  double wpf_parallel = 0.0;
  for (const std::vector<SweepResult>& series : sweeps) {
    for (const SweepResult& r : series) {
      reporter.AddRow("threads_sweep", {{"engine", r.engine},
                                        {"threads", r.threads},
                                        {"items", r.items},
                                        {"scan_seconds", r.scan_seconds},
                                        {"phase1_wall_seconds", r.phase1_wall_seconds},
                                        {"merge_wall_seconds", r.merge_wall_seconds},
                                        {"overlap_efficiency", r.overlap_efficiency},
                                        {"speculative_hashes", r.speculative_hashes},
                                        {"speculative_stale", r.speculative_stale},
                                        {"pages_per_second", r.pages_per_second},
                                        {"oversubscribed", oversubscribed(r.threads)}});
    }
  }
  std::printf("\nmeasured parallel scan speedup vs 1 thread (host has %u cpu%s, "
              "* = oversubscribed):\n",
              host_cpus, host_cpus == 1 ? "" : "s");
  for (const std::vector<SweepResult>& series : sweeps) {
    const double base_pps = series.front().pages_per_second;
    std::printf("  %-12s", series.front().engine.c_str());
    for (const SweepResult& r : series) {
      const double speedup = base_pps > 0 ? r.pages_per_second / base_pps : 0.0;
      if (series.front().engine == "WPF" && r.threads == kHeadlineThreads) {
        wpf_parallel = speedup;
      }
      std::printf("  %zut=%.2fx%s", r.threads, speedup, oversubscribed(r.threads) ? "*" : "");
      reporter.AddRow("parallel_speedup", {{"engine", r.engine},
                                           {"threads", r.threads},
                                           {"speedup", speedup},
                                           {"oversubscribed", oversubscribed(r.threads)}});
    }
    std::printf("\n");
  }
  std::printf("\nheadline: WPF %zu-thread parallel scan speedup %.2fx (measured%s, "
              "target >= 3x)\n",
              kHeadlineThreads, wpf_parallel,
              oversubscribed(kHeadlineThreads) ? ", oversubscribed" : "");
  reporter.AddRow("headlines", {{"name", "wpf_parallel_speedup_4t"},
                                {"value", wpf_parallel},
                                {"target", 3.0},
                                {"oversubscribed", oversubscribed(kHeadlineThreads)}});
  const std::string path = reporter.WriteJson();
  if (!path.empty()) {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace
}  // namespace vusion

int main() {
  // The env override exists for CI; the bench owns its thread counts.
  unsetenv("VUSION_SCAN_THREADS");
  vusion::Run();
  return 0;
}
