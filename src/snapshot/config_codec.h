// Field-by-field codecs for the plain config structs a snapshot embeds. The
// configs are serialized so a snapshot is self-describing — RestoreSnapshotToNew
// reconstructs the Machine and engine from the recorded configs before touching
// any state section. Every field is written in declaration order; adding a
// config field is a snapshot format change (bump snapshot::kVersion).

#ifndef VUSION_SRC_SNAPSHOT_CONFIG_CODEC_H_
#define VUSION_SRC_SNAPSHOT_CONFIG_CODEC_H_

#include <cstdint>
#include <string>

#include "src/fusion/fusion_stats.h"
#include "src/host/thread_pool.h"
#include "src/kernel/khugepaged.h"
#include "src/kernel/machine.h"
#include "src/snapshot/io.h"

namespace vusion::snapshot {

inline void WriteCacheConfig(SnapshotWriter& w, const CacheConfig& c) {
  w.U64(c.line_size);
  w.U64(c.ways);
  w.U64(c.sets);
}

// Rejects any geometry the Llc constructor would: a restored Machine must never
// be built around a cache it cannot index (an uncommitted LLC would otherwise
// restore cleanly and fail on its first access).
inline CacheConfig ReadCacheConfig(SnapshotReader& r) {
  CacheConfig c;
  c.line_size = static_cast<std::size_t>(r.U64());
  c.ways = static_cast<std::size_t>(r.U64());
  c.sets = static_cast<std::size_t>(r.U64());
  if (const char* error = c.GeometryError()) {
    throw RestoreError("config", std::string("bad cache geometry: ") + error);
  }
  return c;
}

inline void WriteDramConfig(SnapshotWriter& w, const DramConfig& c) {
  w.U64(c.row_bytes);
  w.U64(c.banks);
  w.U64(c.refresh_interval);
  w.U32(c.hammer_threshold);
  w.U32(c.single_sided_factor);
  w.F64(c.vulnerable_row_fraction);
  w.U32(c.max_flips_per_row);
  w.U64(c.template_seed);
}

inline DramConfig ReadDramConfig(SnapshotReader& r) {
  DramConfig c;
  c.row_bytes = static_cast<std::size_t>(r.U64());
  c.banks = static_cast<std::size_t>(r.U64());
  c.refresh_interval = r.U64();
  c.hammer_threshold = r.U32();
  c.single_sided_factor = r.U32();
  c.vulnerable_row_fraction = r.F64();
  c.max_flips_per_row = r.U32();
  c.template_seed = r.U64();
  return c;
}

inline void WriteLatencyConfig(SnapshotWriter& w, const LatencyConfig& c) {
  w.U64(c.tlb_hit);
  w.U64(c.tlb_lookup);
  w.U64(c.page_walk_step_cached);
  w.U64(c.page_walk_step_memory);
  w.U64(c.l1_hit);
  w.U64(c.llc_hit);
  w.U64(c.dram_row_hit);
  w.U64(c.dram_row_miss);
  w.U64(c.uncached_access);
  w.U64(c.clflush);
  w.U64(c.page_cache_fill);
  w.U64(c.fault_entry_exit);
  w.U64(c.page_copy_4k);
  w.U64(c.buddy_alloc);
  w.U64(c.buddy_free);
  w.U64(c.pte_update);
  w.U64(c.tree_step);
  w.U64(c.content_compare);
  w.U64(c.content_hash);
  w.U64(c.queue_op);
  w.U64(c.huge_collapse);
  w.U64(c.huge_split);
  w.F64(c.noise_sigma);
}

inline LatencyConfig ReadLatencyConfig(SnapshotReader& r) {
  LatencyConfig c;
  c.tlb_hit = r.U64();
  c.tlb_lookup = r.U64();
  c.page_walk_step_cached = r.U64();
  c.page_walk_step_memory = r.U64();
  c.l1_hit = r.U64();
  c.llc_hit = r.U64();
  c.dram_row_hit = r.U64();
  c.dram_row_miss = r.U64();
  c.uncached_access = r.U64();
  c.clflush = r.U64();
  c.page_cache_fill = r.U64();
  c.fault_entry_exit = r.U64();
  c.page_copy_4k = r.U64();
  c.buddy_alloc = r.U64();
  c.buddy_free = r.U64();
  c.pte_update = r.U64();
  c.tree_step = r.U64();
  c.content_compare = r.U64();
  c.content_hash = r.U64();
  c.queue_op = r.U64();
  c.huge_collapse = r.U64();
  c.huge_split = r.U64();
  c.noise_sigma = r.F64();
  return c;
}

inline void WriteMachineConfig(SnapshotWriter& w, const MachineConfig& c) {
  w.U32(c.frame_count);
  WriteCacheConfig(w, c.cache);
  WriteCacheConfig(w, c.l1_cache);
  w.Bool(c.enable_l1);
  WriteDramConfig(w, c.dram);
  WriteLatencyConfig(w, c.latency);
  w.U64(c.seed);
}

inline MachineConfig ReadMachineConfig(SnapshotReader& r) {
  MachineConfig c;
  c.frame_count = r.U32();
  c.cache = ReadCacheConfig(r);
  c.l1_cache = ReadCacheConfig(r);
  c.enable_l1 = r.Bool();
  c.dram = ReadDramConfig(r);
  c.latency = ReadLatencyConfig(r);
  c.seed = r.U64();
  if (const char* error = c.CacheKeyError()) {
    throw RestoreError("config", error);
  }
  return c;
}

inline void WriteFusionConfig(SnapshotWriter& w, const FusionConfig& c) {
  w.U64(c.wake_period);
  w.U64(c.pages_per_wake);
  w.U64(c.scan_threads);
  w.Bool(c.zero_pages_only);
  w.Bool(c.unmerge_on_any_access);
  w.U64(c.pool_frames);
  w.U64(c.min_idle_rounds);
  w.Bool(c.working_set_estimation);
  w.Bool(c.deferred_free);
  w.Bool(c.rerandomize_each_scan);
  w.Bool(c.thp_aware);
  w.U64(c.wpf_period);
  w.U64(c.mc_low_watermark);
  w.U64(c.mc_swap_batch);
  w.F64(c.mc_compression_ratio);
}

inline FusionConfig ReadFusionConfig(SnapshotReader& r) {
  FusionConfig c;
  c.wake_period = r.U64();
  c.pages_per_wake = static_cast<std::size_t>(r.U64());
  const std::uint64_t scan_threads = r.U64();
  if (scan_threads > host::ThreadPool::kMaxThreads) {
    // Checked before any engine (and its host pool) is built from the record.
    throw RestoreError("config", "scan_threads " + std::to_string(scan_threads) +
                                     " exceeds the limit of " +
                                     std::to_string(host::ThreadPool::kMaxThreads));
  }
  c.scan_threads = static_cast<std::size_t>(scan_threads);
  c.zero_pages_only = r.Bool();
  c.unmerge_on_any_access = r.Bool();
  c.pool_frames = static_cast<std::size_t>(r.U64());
  c.min_idle_rounds = static_cast<std::size_t>(r.U64());
  c.working_set_estimation = r.Bool();
  c.deferred_free = r.Bool();
  c.rerandomize_each_scan = r.Bool();
  c.thp_aware = r.Bool();
  c.wpf_period = r.U64();
  c.mc_low_watermark = static_cast<std::size_t>(r.U64());
  c.mc_swap_batch = static_cast<std::size_t>(r.U64());
  c.mc_compression_ratio = r.F64();
  return c;
}

inline void WriteKhugepagedConfig(SnapshotWriter& w, const KhugepagedConfig& c) {
  w.U64(c.period);
  w.U64(c.ranges_per_wake);
  w.U64(c.min_active_subpages);
  w.Bool(c.adaptive_n);
  w.U64(c.n_min);
  w.U64(c.n_max);
  w.U64(c.pressure_low_frames);
  w.U64(c.pressure_high_frames);
}

inline KhugepagedConfig ReadKhugepagedConfig(SnapshotReader& r) {
  KhugepagedConfig c;
  c.period = r.U64();
  c.ranges_per_wake = static_cast<std::size_t>(r.U64());
  c.min_active_subpages = static_cast<std::size_t>(r.U64());
  c.adaptive_n = r.Bool();
  c.n_min = static_cast<std::size_t>(r.U64());
  c.n_max = static_cast<std::size_t>(r.U64());
  c.pressure_low_frames = static_cast<std::size_t>(r.U64());
  c.pressure_high_frames = static_cast<std::size_t>(r.U64());
  return c;
}

}  // namespace vusion::snapshot

#endif  // VUSION_SRC_SNAPSHOT_CONFIG_CODEC_H_
