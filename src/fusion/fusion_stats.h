// Shared statistics and configuration for all three fusion engines.

#ifndef VUSION_SRC_FUSION_FUSION_STATS_H_
#define VUSION_SRC_FUSION_FUSION_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/mmu/vma.h"
#include "src/phys/frame.h"
#include "src/sim/clock.h"

namespace vusion {

struct FusionStats {
  std::uint64_t pages_scanned = 0;
  std::uint64_t merges = 0;        // page joined an existing shared copy
  std::uint64_t fake_merges = 0;   // VUsion only
  std::uint64_t unmerges_cow = 0;  // copy-on-write unmerges
  std::uint64_t unmerges_coa = 0;  // copy-on-access unmerges
  std::uint64_t zero_page_merges = 0;
  std::uint64_t full_scans = 0;    // completed rounds over all mergeable memory
  std::uint64_t thp_splits = 0;
  // Merges attributed to the guest role of the merged page (paper Table 3).
  std::array<std::uint64_t, 4> merges_by_type{};

  // When enabled, every frame chosen to back a (fake) merge or unmerge is logged,
  // along with the pool slot draw (normalized to [0,1)); the RA security bench
  // KS-tests the draws against the uniform distribution.
  bool log_allocations = false;
  std::vector<FrameId> allocation_log;
  std::vector<double> slot_log;

  void RecordMergeType(PageType type) { ++merges_by_type[static_cast<std::size_t>(type)]; }
  void LogAllocation(FrameId frame) {
    if (log_allocations) {
      allocation_log.push_back(frame);
    }
  }

  [[nodiscard]] std::string Summary() const;
};

struct FusionConfig {
  // Scan rate: N pages per T wake-up (KSM defaults from the paper: T=20ms, N=100).
  SimTime wake_period = 20 * kMillisecond;
  std::size_t pages_per_wake = 100;

  // Host threads for the streaming scan pipeline's hashing; 1 = the serial
  // reference path. Simulated stats, traces, and charged latencies are
  // bit-identical for every value (see DESIGN.md, "Parallel host, serial sim").
  // The VUSION_SCAN_THREADS environment variable overrides this via
  // ApplyEnvOverrides (used by the TSan CI job to run the whole suite threaded).
  std::size_t scan_threads = 1;

  // Fig 4 comparison knobs (on KSM).
  bool zero_pages_only = false;
  bool unmerge_on_any_access = false;  // "copy-on-access" KSM variant

  // VUsion knobs.
  std::size_t pool_frames = 32768;        // 128 MB => 15 bits of entropy (paper §7.1)
  std::size_t min_idle_rounds = 1;        // full rounds a page must stay idle
  bool working_set_estimation = true;     // ablation: off = act on every page
  bool deferred_free = true;              // ablation: off = reopen timing channel
  bool rerandomize_each_scan = true;      // ablation: off = enable color profiling
  bool thp_aware = false;                 // "VUsion THP": secured khugepaged collapse

  // WPF pass period (paper: 15 minutes).
  SimTime wpf_period = 15 * 60 * kSecond;

  // Memory Combining (swap-cache-only dedup, §10.1 related work):
  std::size_t mc_low_watermark = 1024;   // swap out when free frames drop below
  std::size_t mc_swap_batch = 512;       // pages swapped per pressure episode
  double mc_compression_ratio = 3.0;     // modeled compression of the cache

  // Applies recognized environment overrides (see README "Environment overrides"):
  //   VUSION_SCAN_THREADS — scan_threads (a positive integer up to
  //                         host::ThreadPool::kMaxThreads; other values are ignored)
  // MakeEngine and Scenario call this; direct engine construction does not, so
  // building an engine never silently reads the environment.
  void ApplyEnvOverrides();
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_FUSION_STATS_H_
