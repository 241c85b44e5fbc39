#include "src/kernel/machine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/host/thread_pool.h"
#include "src/kernel/khugepaged.h"
#include "src/kernel/process.h"
#include "src/snapshot/config_codec.h"
#include "src/snapshot/rng_codec.h"

namespace vusion {

const char* MachineConfig::CacheKeyError() const {
  if (frame_count > cache.max_frames()) {
    return "frame_count exceeds the frames the LLC geometry can key";
  }
  if (frame_count > l1_cache.max_frames()) {
    return "frame_count exceeds the frames the L1 geometry can key";
  }
  return nullptr;
}

Machine::Machine(const MachineConfig& config) : config_(config), rng_(config.seed) {
  latency_ = std::make_unique<LatencyModel>(config.latency, clock_, rng_.Fork());
  // The caches check their geometry, and then the frame count against it,
  // before physical memory is sized by that count.
  llc_ = std::make_unique<Llc>(config.cache);
  l1_ = std::make_unique<Llc>(config.l1_cache);
  if (const char* error = config.CacheKeyError()) {
    throw std::invalid_argument(std::string("Machine: ") + error);
  }
  memory_ = std::make_unique<PhysicalMemory>(config.frame_count);
  buddy_ = std::make_unique<BuddyAllocator>(*memory_);
  dram_mapping_ = std::make_unique<DramMapping>(config.dram);
  row_buffer_ = std::make_unique<RowBuffer>(*dram_mapping_, clock_);
  rowhammer_ = std::make_unique<RowhammerEngine>(*dram_mapping_, *row_buffer_, *memory_);

  fault_count_policy_ = &metrics_.GetCounter("fault.count", {{"kind", "policy"}});
  fault_count_demand_zero_ = &metrics_.GetCounter("fault.count", {{"kind", "demand_zero"}});
  fault_count_cow_ = &metrics_.GetCounter("fault.count", {{"kind", "cow"}});
  fault_count_unresolved_ = &metrics_.GetCounter("fault.count", {{"kind", "unresolved"}});
  fault_count_transient_ = &metrics_.GetCounter("fault.count", {{"kind", "transient"}});
  fault_count_spurious_ = &metrics_.GetCounter("fault.count", {{"kind", "spurious"}});
  fault_latency_policy_ = &metrics_.GetHistogram("fault.latency_ns", {{"kind", "policy"}});
  fault_latency_demand_zero_ =
      &metrics_.GetHistogram("fault.latency_ns", {{"kind", "demand_zero"}});
  fault_latency_cow_ = &metrics_.GetHistogram("fault.latency_ns", {{"kind", "cow"}});
}

Machine::~Machine() = default;

FaultInjector& Machine::EnableChaos(const ChaosConfig& config) {
  chaos_ = std::make_unique<FaultInjector>(config);
  buddy_->set_fault_injector(chaos_.get());
  return *chaos_;
}

FaultInjector& Machine::EnableChaosWithSchedule(const ChaosConfig& config,
                                                const std::vector<FaultRecord>& schedule) {
  chaos_ = std::make_unique<FaultInjector>(config, schedule);
  buddy_->set_fault_injector(chaos_.get());
  return *chaos_;
}

host::ThreadPool* Machine::HostPool(std::size_t threads) {
  if (threads <= 1) {
    return nullptr;
  }
  if (host_pool_ == nullptr || host_pool_->thread_count() < threads) {
    host_pool_ = std::make_unique<host::ThreadPool>(threads);
  }
  return host_pool_.get();
}

Process& Machine::CreateProcess() {
  const auto id = static_cast<std::uint32_t>(processes_.size());
  processes_.push_back(std::make_unique<Process>(*this, id));
  return *processes_.back();
}

Process& Machine::ForkProcess(Process& parent) {
  Process& child = CreateProcess();
  child.InheritLayout(parent);
  AddressSpace& pas = parent.address_space();
  AddressSpace& cas = child.address_space();
  std::vector<std::pair<Vpn, Pte>> entries;
  pas.page_table().ForEachEntry(0, Vpn{1} << 36, [&entries](Vpn vpn, Pte& pte) {
    entries.emplace_back(vpn, pte);
  });
  const LatencyConfig& lc = latency_->config();
  for (const auto& [vpn, pte] : entries) {
    latency_->ChargeExact(lc.pte_update);
    if (pte.huge()) {
      // Huge mappings are copied eagerly (they are always exclusive here).
      const FrameId block = buddy_->AllocateOrder(kHugePageOrder);
      if (block != kInvalidFrame) {
        for (std::size_t i = 0; i < kPagesPerHugePage; ++i) {
          memory_->CopyFrame(block + static_cast<FrameId>(i),
                             pte.frame + static_cast<FrameId>(i));
        }
        cas.MapHugeRange(vpn, block, pte.flags);
        continue;
      }
      // Fragmentation: fall back to eager small-page copies.
      for (std::size_t i = 0; i < kPagesPerHugePage; ++i) {
        const FrameId f = buddy_->Allocate();
        if (f == kInvalidFrame) {
          break;
        }
        memory_->CopyFrame(f, pte.frame + static_cast<FrameId>(i));
        cas.MapPage(vpn + i, f, kPtePresent | kPteWritable);
      }
      continue;
    }
    if ((pte.flags & kPteSwapped) != 0) {
      continue;  // swapped-out: the child demand-faults a fresh zero page
    }
    if (policy_ != nullptr && policy_->Owns(parent, vpn)) {
      // Fusion-managed page: eager private copy keeps the engine's ownership
      // model untangled from fork's kernel-level sharing.
      const FrameId f = buddy_->Allocate();
      if (f != kInvalidFrame) {
        memory_->CopyFrame(f, pte.frame);
        cas.MapPage(vpn, f, kPtePresent | kPteWritable | kPteAccessed);
      }
      continue;
    }
    // Plain page (or an already fork-shared one): share copy-on-write.
    const std::uint32_t refs = memory_->refcount(pte.frame);
    memory_->SetRefcount(pte.frame, refs == 0 ? 2 : refs + 1);
    const auto flags =
        static_cast<std::uint16_t>((pte.flags & ~kPteWritable) | kPteCow);
    pas.SetPte(vpn, Pte{pte.frame, flags});
    cas.MapPage(vpn, pte.frame, flags);
  }
  return child;
}

void Machine::DestroyProcess(Process& process) {
  AddressSpace& as = process.address_space();
  // Collect mappings first (unmapping mutates the tree we iterate).
  std::vector<std::pair<Vpn, Pte>> entries;
  as.page_table().ForEachEntry(0, Vpn{1} << 36, [&entries](Vpn vpn, Pte& pte) {
    entries.emplace_back(vpn, pte);
  });
  for (const auto& [vpn, pte] : entries) {
    if (pte.huge()) {
      // Huge mappings are always exclusive (engines split before sharing).
      as.UnmapPage(vpn);  // clears the PMD entry
      FlushFrame(pte.frame);
      buddy_->FreeOrder(pte.frame, kHugePageOrder);
    } else {
      UnmapAndFree(process, vpn);
    }
  }
  if (policy_ != nullptr) {
    policy_->OnProcessDestroy(process);
  }
  // The slot goes null; process ids are never reused. The AddressSpace destructor
  // releases the page-table node frames.
  processes_[process.id()].reset();
}

void Machine::RemoveDaemon(Daemon* daemon) {
  daemons_.erase(std::remove(daemons_.begin(), daemons_.end(), daemon), daemons_.end());
  DaemonDeadlinesMoved();
}

Khugepaged& Machine::EnableKhugepaged(const KhugepagedConfig& config) {
  khugepaged_ = std::make_unique<Khugepaged>(*this, config);
  AddDaemon(khugepaged_.get());
  return *khugepaged_;
}

void Machine::FlushFrame(FrameId frame) {
  l1_->FlushFrame(frame);
  llc_->FlushFrame(frame);
}

void Machine::RunDueDaemonsSlow() {
  if (in_daemon_) {
    return;
  }
  in_daemon_ = true;
  bool ran = true;
  while (ran) {
    ran = false;
    for (Daemon* d : daemons_) {
      if (d->next_run() <= clock_.now()) {
        d->Run();
        ran = true;
      }
    }
  }
  SimTime next = std::numeric_limits<SimTime>::max();
  for (const Daemon* d : daemons_) {
    next = std::min(next, d->next_run());
  }
  next_daemon_due_ = next;
  in_daemon_ = false;
}

void Machine::Idle(SimTime duration) {
  if (in_daemon_) {
    // A daemon cannot re-enter, so the due daemon that is running now would
    // stay due and the loop below would never advance the clock.
    clock_.Advance(duration);
    return;
  }
  const SimTime end = clock_.now() + duration;
  while (clock_.now() < end) {
    SimTime next = end;
    for (const Daemon* d : daemons_) {
      next = std::min(next, d->next_run());
    }
    if (next > clock_.now()) {
      clock_.Advance(next - clock_.now());
    }
    RunDueDaemons();
  }
}

void Machine::UnmapAndFree(Process& process, Vpn vpn) {
  AddressSpace& as = process.address_space();
  Pte* pte = as.GetPte(vpn);
  if (pte == nullptr || pte->flags == 0) {
    return;
  }
  assert(!pte->huge() && "unmap of individual huge subpages is not supported");
  const FrameId frame = pte->frame;
  const bool policy_owned = policy_ != nullptr && policy_->OnUnmap(process, vpn);
  as.UnmapPage(vpn);
  if (!policy_owned && frame != kInvalidFrame) {
    // Fork-shared frames stay alive until the last sharer unmaps.
    const std::uint32_t refs = memory_->refcount(frame);
    if (refs > 1) {
      memory_->DecRef(frame);
      return;
    }
    if (refs == 1) {
      memory_->SetRefcount(frame, 0);
    }
    FlushFrame(frame);
    buddy_->Free(frame);
  }
}

MetricsSnapshot Machine::CollectMetrics() {
  metrics_.GetCounter("fault.total").Set(total_faults_);
  const auto harvest_cache = [this](const Llc& cache, const char* level) {
    const MetricLabels labels{{"level", level}};
    metrics_.GetCounter("cache.hits", labels).Set(cache.hits());
    metrics_.GetCounter("cache.misses", labels).Set(cache.misses());
    metrics_.GetCounter("cache.line_flushes", labels).Set(cache.line_flushes());
    metrics_.GetCounter("cache.frame_flushes", labels).Set(cache.frame_flushes());
  };
  harvest_cache(*llc_, "llc");
  harvest_cache(*l1_, "l1");
  metrics_.GetCounter("dram.row_hits").Set(row_buffer_->row_hits());
  metrics_.GetCounter("dram.row_conflicts").Set(row_buffer_->row_conflicts());
  metrics_.GetCounter("dram.activations").Set(row_buffer_->total_activations());
  metrics_.GetCounter("dram.rowhammer_flips").Set(rowhammer_->total_flips());
  metrics_.GetCounter("buddy.allocs").Set(buddy_->alloc_count());
  metrics_.GetCounter("buddy.frees").Set(buddy_->free_op_count());
  metrics_.GetCounter("buddy.splits").Set(buddy_->split_count());
  metrics_.GetCounter("buddy.coalesces").Set(buddy_->coalesce_count());
  metrics_.GetCounter("buddy.failed_allocs").Set(buddy_->failed_alloc_count());
  metrics_.GetGauge("buddy.free_frames").Set(static_cast<double>(buddy_->free_count()));
  if (khugepaged_ != nullptr) {
    metrics_.GetCounter("khugepaged.collapses").Set(khugepaged_->collapses());
    metrics_.GetCounter("khugepaged.collapse_attempts").Set(khugepaged_->collapse_attempts());
    metrics_.GetGauge("khugepaged.current_n").Set(static_cast<double>(khugepaged_->current_n()));
  }
  metrics_.GetCounter("trace.emitted").Set(trace_.total_emitted());
  metrics_.GetCounter("trace.dropped").Set(trace_.dropped());
  const auto pattern_stats = memory_->pattern_hash_cache_stats();
  metrics_.GetCounter("pattern_hash_cache.hits").Set(pattern_stats.hits);
  metrics_.GetCounter("pattern_hash_cache.misses").Set(pattern_stats.misses);
  metrics_.GetCounter("pattern_hash_cache.evictions").Set(pattern_stats.evictions);
  metrics_.GetGauge("pattern_hash_cache.entries")
      .Set(static_cast<double>(pattern_stats.entries));
  if (chaos_ != nullptr) {
    chaos_->ExportMetrics(metrics_);
  }
  return metrics_.Snapshot();
}

Machine::Footprint Machine::MeasureFootprint() const {
  Footprint fp;
  fp.frame_table_bytes = memory_->frame_table_bytes();
  fp.materialized_bytes = memory_->materialized_bytes();
  fp.cache_bytes = llc_->resident_bytes() + l1_->resident_bytes();
  fp.trace_bytes = trace_.resident_bytes();
  return fp;
}

std::uint64_t Machine::CountHugeMappings() const {
  std::uint64_t count = 0;
  for (const auto& process : processes_) {
    if (process == nullptr) {
      continue;
    }
    auto& table = const_cast<Process&>(*process).address_space().page_table();
    table.ForEachEntry(0, Vpn{1} << 36, [&count](Vpn, Pte& pte) {
      if (pte.huge()) {
        ++count;
      }
    });
  }
  return count;
}

// --- Savestates (DESIGN.md §13) ---

void Machine::Save(snapshot::SnapshotWriter& w) {
  using snapshot::WriteKhugepagedConfig;
  using snapshot::WriteLatencyConfig;
  using snapshot::WriteRng;
  using snapshot::WriteRngState;

  // The first section carries the process-slot liveness mask so Restore can
  // create the process shells before any component state lands.
  w.BeginSection("machine");
  w.U64(clock_.now());
  w.U64(total_faults_);
  w.U64(processes_.size());
  for (const auto& process : processes_) {
    w.Bool(process != nullptr);
  }
  w.EndSection();

  w.BeginSection("rng");
  WriteRng(w, rng_);
  w.EndSection();

  // The in-effect latency config is serialized separately from the boot config:
  // mutable_config() tweaks (noise sigma ablations) are state.
  w.BeginSection("latency");
  WriteLatencyConfig(w, latency_->config());
  WriteRngState(w, latency_->noise_rng_state());
  const LatencyModel::NoiseCacheState noise = latency_->noise_cache_state();
  for (const double g : noise.gauss) {
    w.F64(g);
  }
  for (const double f : noise.factor) {
    w.F64(f);
  }
  w.F64(noise.factor_sigma);
  w.U32(static_cast<std::uint32_t>(noise.noise_pos));
  w.EndSection();

  w.BeginSection("phys");
  memory_->SaveState(w);
  w.EndSection();

  w.BeginSection("buddy");
  buddy_->SaveState(w);
  w.EndSection();

  w.BeginSection("cache");
  llc_->SaveState(w);
  l1_->SaveState(w);
  w.EndSection();

  w.BeginSection("dram");
  row_buffer_->SaveState(w);
  rowhammer_->SaveState(w);
  w.EndSection();

  w.BeginSection("procs");
  for (const auto& process : processes_) {
    if (process == nullptr) {
      continue;
    }
    w.U64(process->next_region_vpn());
    AddressSpace& as = process->address_space();
    const auto& areas = as.vmas().areas();
    w.U64(areas.size());
    for (const VmArea& vma : areas) {
      w.U64(vma.start);
      w.U64(vma.pages);
      w.Bool(vma.mergeable);
      w.Bool(vma.thp_eligible);
      w.U8(static_cast<std::uint8_t>(vma.type));
    }
    as.page_table().SaveState(w);
    as.tlb().SaveState(w);
  }
  w.EndSection();

  w.BeginSection("trace");
  trace_.SaveState(w);
  w.EndSection();

  w.BeginSection("metrics");
  metrics_.SaveState(w);
  w.EndSection();

  w.BeginSection("chaos");
  w.Bool(chaos_ != nullptr);
  if (chaos_ != nullptr) {
    chaos_->SaveState(w);
  }
  w.EndSection();

  w.BeginSection("khugepaged");
  w.Bool(khugepaged_ != nullptr);
  if (khugepaged_ != nullptr) {
    // Daemon order is behavioral (RunDueDaemons runs in registration order), so
    // record whether khugepaged was registered before the engine.
    w.Bool(!daemons_.empty() && daemons_.front() == khugepaged_.get());
    WriteKhugepagedConfig(w, khugepaged_->config());
    khugepaged_->SaveState(w);
  }
  w.EndSection();
}

void Machine::ForgetPageTableFrames() {
  for (const auto& process : processes_) {
    if (process != nullptr) {
      process->address_space().page_table().Abandon();
    }
  }
}

void Machine::Restore(snapshot::SnapshotReader& r) {
  using snapshot::ReadKhugepagedConfig;
  using snapshot::ReadLatencyConfig;
  using snapshot::ReadRng;
  using snapshot::ReadRngState;
  using snapshot::RestoreError;

  r.OpenSection("machine");
  const SimTime now = r.U64();
  total_faults_ = r.U64();
  const std::uint64_t slot_count = r.Count(1);
  std::vector<bool> live;
  live.reserve(static_cast<std::size_t>(slot_count));
  for (std::uint64_t i = 0; i < slot_count; ++i) {
    live.push_back(r.Bool());
  }
  r.EndSection();

  if (!processes_.empty()) {
    throw RestoreError("machine", "restore target already has processes");
  }
  clock_.Reset();
  clock_.Advance(now);

  // Process shells first: shell construction may draw page-table root frames
  // from the live buddy, and the wholesale phys/buddy restore below then
  // discards those draws (PageTable::RestoreState likewise drops the shell
  // nodes without freeing).
  for (const bool alive : live) {
    if (alive) {
      CreateProcess();
    } else {
      processes_.push_back(nullptr);
    }
  }

  r.OpenSection("rng");
  ReadRng(r, rng_);
  r.EndSection();

  r.OpenSection("latency");
  latency_->mutable_config() = ReadLatencyConfig(r);
  const Rng::State noise_rng = ReadRngState(r);
  LatencyModel::NoiseCacheState noise;
  for (double& g : noise.gauss) {
    g = r.F64();
  }
  for (double& f : noise.factor) {
    f = r.F64();
  }
  noise.factor_sigma = r.F64();
  noise.noise_pos = static_cast<int>(r.U32());
  if (const char* damage = noise.Damage()) {
    throw RestoreError("latency", damage);
  }
  latency_->RestoreNoiseState(noise_rng, noise);
  r.EndSection();

  r.OpenSection("phys");
  memory_->RestoreState(r);
  r.EndSection();

  r.OpenSection("buddy");
  buddy_->RestoreState(r);
  r.EndSection();

  r.OpenSection("cache");
  llc_->RestoreState(r, memory_->frame_count());
  l1_->RestoreState(r, memory_->frame_count());
  r.EndSection();

  r.OpenSection("dram");
  row_buffer_->RestoreState(r);
  rowhammer_->RestoreState(r);
  r.EndSection();

  r.OpenSection("procs");
  for (const auto& process : processes_) {
    if (process == nullptr) {
      continue;
    }
    process->set_next_region_vpn(r.U64());
    AddressSpace& as = process->address_space();
    std::vector<VmArea>& areas = as.vmas().mutable_areas();
    areas.clear();
    const std::uint64_t vma_count = r.Count(19);
    areas.reserve(static_cast<std::size_t>(vma_count));
    for (std::uint64_t i = 0; i < vma_count; ++i) {
      VmArea vma;
      vma.start = r.U64();
      vma.pages = r.U64();
      vma.mergeable = r.Bool();
      vma.thp_eligible = r.Bool();
      const std::uint8_t type = r.U8();
      if (type > static_cast<std::uint8_t>(PageType::kGuestKernel)) {
        throw RestoreError("procs", "bad VMA page type");
      }
      vma.type = static_cast<PageType>(type);
      areas.push_back(vma);
    }
    as.page_table().RestoreState(r);
    as.tlb().RestoreState(r);
  }
  r.EndSection();

  r.OpenSection("trace");
  trace_.RestoreState(r);
  r.EndSection();

  r.OpenSection("metrics");
  metrics_.RestoreState(r);
  r.EndSection();

  r.OpenSection("chaos");
  if (r.Bool()) {
    EnableChaos(ChaosConfig{});
    chaos_->RestoreState(r);
  }
  r.EndSection();

  r.OpenSection("khugepaged");
  if (r.Bool()) {
    const bool khugepaged_first = r.Bool();
    const KhugepagedConfig kcfg = ReadKhugepagedConfig(r);
    EnableKhugepaged(kcfg);
    khugepaged_->RestoreState(r);
    if (khugepaged_first) {
      const auto it =
          std::find(daemons_.begin(), daemons_.end(), static_cast<Daemon*>(khugepaged_.get()));
      std::rotate(daemons_.begin(), it, it + 1);
    }
  }
  r.EndSection();
}

}  // namespace vusion
