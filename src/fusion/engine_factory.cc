#include "src/fusion/engine_factory.h"

#include "src/kernel/process.h"
#include "src/snapshot/io.h"

#include "src/fusion/ksm.h"
#include "src/fusion/memory_combining.h"
#include "src/fusion/vusion_engine.h"
#include "src/fusion/wpf.h"

namespace vusion {

const char* ScanPhaseName(ScanPhase phase) {
  switch (phase) {
    case ScanPhase::kQuantumStart:
      return "quantum_start";
    case ScanPhase::kBatchCollected:
      return "batch_collected";
    case ScanPhase::kHashed:
      return "hashed";
    case ScanPhase::kQuantumEnd:
      return "quantum_end";
  }
  return "?";
}

void FusionEngine::ExportMetrics(MetricsRegistry& registry) const {
  registry.GetCounter("fusion.pages_scanned").Set(stats_.pages_scanned);
  registry.GetCounter("fusion.merges").Set(stats_.merges);
  registry.GetCounter("fusion.fake_merges").Set(stats_.fake_merges);
  registry.GetCounter("fusion.unmerges_cow").Set(stats_.unmerges_cow);
  registry.GetCounter("fusion.unmerges_coa").Set(stats_.unmerges_coa);
  registry.GetCounter("fusion.zero_page_merges").Set(stats_.zero_page_merges);
  registry.GetCounter("fusion.full_scans").Set(stats_.full_scans);
  registry.GetCounter("fusion.thp_splits").Set(stats_.thp_splits);
  for (std::size_t i = 0; i < stats_.merges_by_type.size(); ++i) {
    registry.GetCounter("fusion.merges_by_type", {{"type", PageTypeName(static_cast<PageType>(i))}})
        .Set(stats_.merges_by_type[i]);
  }
  registry.GetGauge("fusion.frames_saved").Set(static_cast<double>(frames_saved()));
  registry.GetGauge("fusion.reserved_frames").Set(static_cast<double>(reserved_frames()));
  // Speculative-hash conflict accounting from the scan pipeline (engines with
  // no pipeline report nothing). Host-side observability only — values vary
  // with thread interleaving, so no parity suite compares them.
  if (const host::ScanTiming* timing = scan_timing()) {
    registry.GetCounter("scan.speculative_hashes").Set(timing->speculative_hashes);
    registry.GetCounter("scan.speculative_stale").Set(timing->speculative_stale);
  }
}

void FusionEngine::TearDown() {
  for (const auto& process : machine_->processes()) {
    if (process == nullptr) {
      continue;
    }
    for (const VmArea& vma : process->address_space().vmas().areas()) {
      if (vma.mergeable) {
        OnUnregister(*process, vma.start, vma.pages);
      }
    }
  }
}

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNone:
      return "No dedup";
    case EngineKind::kKsm:
      return "KSM";
    case EngineKind::kKsmCoA:
      return "KSM-CoA";
    case EngineKind::kKsmZeroOnly:
      return "KSM-zero-only";
    case EngineKind::kWpf:
      return "WPF";
    case EngineKind::kVUsion:
      return "VUsion";
    case EngineKind::kVUsionThp:
      return "VUsion THP";
    case EngineKind::kMemoryCombining:
      return "MemCombining";
  }
  return "?";
}

std::unique_ptr<FusionEngine> MakeEngine(EngineKind kind, Machine& machine,
                                         FusionConfig config) {
  config.ApplyEnvOverrides();
  switch (kind) {
    case EngineKind::kNone:
      return nullptr;
    case EngineKind::kKsm:
      return std::make_unique<Ksm>(machine, config);
    case EngineKind::kKsmCoA:
      config.unmerge_on_any_access = true;
      return std::make_unique<Ksm>(machine, config);
    case EngineKind::kKsmZeroOnly:
      config.zero_pages_only = true;
      return std::make_unique<Ksm>(machine, config);
    case EngineKind::kWpf:
      return std::make_unique<Wpf>(machine, config);
    case EngineKind::kVUsion:
      config.thp_aware = false;
      return std::make_unique<VUsionEngine>(machine, config);
    case EngineKind::kVUsionThp:
      config.thp_aware = true;
      return std::make_unique<VUsionEngine>(machine, config);
    case EngineKind::kMemoryCombining:
      return std::make_unique<MemoryCombining>(machine, config);
  }
  return nullptr;
}

std::unique_ptr<FusionEngine> MakeEngineExact(EngineKind kind, Machine& machine,
                                              const FusionConfig& config) {
  switch (kind) {
    case EngineKind::kNone:
      return nullptr;
    case EngineKind::kKsm:
    case EngineKind::kKsmCoA:
    case EngineKind::kKsmZeroOnly:
      // The variant knobs (unmerge_on_any_access, zero_pages_only) are already
      // baked into the recorded config.
      return std::make_unique<Ksm>(machine, config);
    case EngineKind::kWpf:
      return std::make_unique<Wpf>(machine, config);
    case EngineKind::kVUsion:
    case EngineKind::kVUsionThp:
      return std::make_unique<VUsionEngine>(machine, config);
    case EngineKind::kMemoryCombining:
      return std::make_unique<MemoryCombining>(machine, config);
  }
  return nullptr;
}

void FusionEngine::SaveState(snapshot::SnapshotWriter& w) const {
  (void)w;
  throw snapshot::RestoreError("engine",
                               std::string(name()) + " does not support savestates");
}

void FusionEngine::RestoreState(snapshot::SnapshotReader& r) {
  (void)r;
  throw snapshot::RestoreError("engine",
                               std::string(name()) + " does not support savestates");
}

void FusionEngine::SaveCommon(snapshot::SnapshotWriter& w) const {
  w.U64(stats_.pages_scanned);
  w.U64(stats_.merges);
  w.U64(stats_.fake_merges);
  w.U64(stats_.unmerges_cow);
  w.U64(stats_.unmerges_coa);
  w.U64(stats_.zero_page_merges);
  w.U64(stats_.full_scans);
  w.U64(stats_.thp_splits);
  for (const std::uint64_t m : stats_.merges_by_type) {
    w.U64(m);
  }
  w.Bool(stats_.log_allocations);
  w.U64(stats_.allocation_log.size());
  for (const FrameId frame : stats_.allocation_log) {
    w.U32(frame);
  }
  w.U64(stats_.slot_log.size());
  for (const double slot : stats_.slot_log) {
    w.F64(slot);
  }
  w.U64(next_run_);
  w.Bool(paused_);
}

void FusionEngine::RestoreCommon(snapshot::SnapshotReader& r) {
  stats_.pages_scanned = r.U64();
  stats_.merges = r.U64();
  stats_.fake_merges = r.U64();
  stats_.unmerges_cow = r.U64();
  stats_.unmerges_coa = r.U64();
  stats_.zero_page_merges = r.U64();
  stats_.full_scans = r.U64();
  stats_.thp_splits = r.U64();
  for (std::uint64_t& m : stats_.merges_by_type) {
    m = r.U64();
  }
  stats_.log_allocations = r.Bool();
  stats_.allocation_log.clear();
  const std::uint64_t allocs = r.Count(4);
  stats_.allocation_log.reserve(allocs);
  for (std::uint64_t i = 0; i < allocs; ++i) {
    stats_.allocation_log.push_back(r.U32());
  }
  stats_.slot_log.clear();
  const std::uint64_t slots = r.Count(8);
  stats_.slot_log.reserve(slots);
  for (std::uint64_t i = 0; i < slots; ++i) {
    stats_.slot_log.push_back(r.F64());
  }
  next_run_ = r.U64();
  paused_ = r.Bool();
  // Install ran before this restore, so the machine's cached earliest deadline
  // predates next_run_.
  machine_->DaemonDeadlinesMoved();
}

}  // namespace vusion
