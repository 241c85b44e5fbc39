#include "src/fusion/vusion_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/idle_tracker.h"
#include "src/snapshot/io.h"

namespace vusion {

int VUsionEngine::StableCompare::operator()(StableEntry* const& a,
                                            StableEntry* const& b) const {
  return engine->content_.HostOrder(a->frame, b->frame);
}

VUsionEngine::VUsionEngine(Machine& machine, const FusionConfig& config)
    : FusionEngine(machine, config),
      content_(machine),
      cursor_(machine),
      pipeline_(machine.memory()),
      stable_(StableCompare{this}),
      pool_(machine.buddy(), config.pool_frames, machine.rng().Fork()),
      deferred_(machine) {
  stable_.SetNodeArena(&arena_);
}

VUsionEngine::~VUsionEngine() {
  stable_.InOrder([this](StableEntry* const& e) { arena_.Delete(e); });
}

void VUsionEngine::ExportMetrics(MetricsRegistry& registry) const {
  FusionEngine::ExportMetrics(registry);
  registry.GetCounter("pool.draws").Set(pool_.draw_count());
  registry.GetCounter("pool.refills").Set(pool_.refill_count());
  registry.GetCounter("pool.bypasses").Set(pool_.bypass_count());
  registry.GetCounter("pool.inserts").Set(pool_.insert_count());
  registry.GetGauge("pool.size").Set(static_cast<double>(pool_.pool_size()));
  registry.GetGauge("pool.entropy_bits").Set(pool_.entropy_bits());
  registry.GetCounter("deferred_free.dummies").Set(deferred_.dummies_pushed());
  registry.GetGauge("deferred_free.pending").Set(static_cast<double>(deferred_.pending()));
  registry.GetGauge("fusion.round").Set(static_cast<double>(round_));
  registry.GetGauge("fusion.stable_tree_size").Set(static_cast<double>(stable_.size()));
}

FrameId VUsionEngine::AllocBacking() {
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().buddy_alloc);
  const FrameId frame = pool_.Allocate();
  if (frame != kInvalidFrame) {
    stats_.LogAllocation(frame);
    if (stats_.log_allocations && pool_.last_slot_fraction() >= 0.0) {
      stats_.slot_log.push_back(pool_.last_slot_fraction());
    }
  }
  return frame;
}

void VUsionEngine::Run() {
  if (SkipWake()) {
    return;
  }
  // Chaos may be enabled after engine construction; resync the pool's hook here.
  pool_.set_fault_injector(machine_->chaos());
  // Background deferred-free worker: queued frames re-enter the entropy pool.
  deferred_.Drain(pool_);
  const auto scan_start = std::chrono::steady_clock::now();
  NotifyPhase(ScanPhase::kQuantumStart);
  // Fetched every quantum: the Machine replaces its pool when another engine
  // asks for more threads.
  if (host::ThreadPool* host_pool = machine_->HostPool(config_.scan_threads)) {
    ScanQuantumPipelined(*host_pool);
  } else {
    ScanQuantumSerial();
  }
  NotifyPhase(ScanPhase::kQuantumEnd);
  timing_.scan_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count());
  ++timing_.batches;
  next_run_ = machine_->clock().now() + config_.wake_period;
}

void VUsionEngine::ScanQuantumSerial() {
  // Batch the quantum's charges; emits and phase hooks flush (see LatencyModel).
  ChargeSpan span(machine_->latency());
  FaultInjector* injector = chaos();
  for (std::size_t i = 0; i < config_.pages_per_wake; ++i) {
    // Injected scan interruption: abandon the rest of the quantum (pages not
    // yet consumed from the cursor are simply picked up next wake).
    if (injector != nullptr && injector->ShouldFail(FaultSite::kScanInterrupt)) {
      injector->RecordDegradation();
      break;
    }
    Process* process = nullptr;
    Vpn vpn = 0;
    bool wrapped = false;
    if (!cursor_.Next(process, vpn, wrapped)) {
      break;
    }
    if (wrapped) {
      ++round_;
      ++stats_.full_scans;
    }
    timing_.items += 1;
    ScanOne(*process, vpn);
  }
}

void VUsionEngine::ScanQuantumPipelined(host::ThreadPool& host_pool) {
  // Collect the quantum first; ScanOne mutates only PTEs and frames, never the
  // process/VMA structure the cursor iterates, so the sequence matches the serial
  // interleaving.
  ChargeSpan span(machine_->latency());
  FaultInjector* injector = chaos();
  batch_.clear();
  for (std::size_t i = 0; i < config_.pages_per_wake; ++i) {
    if (injector != nullptr && injector->ShouldFail(FaultSite::kScanInterrupt)) {
      injector->RecordDegradation();
      break;
    }
    Process* process = nullptr;
    Vpn vpn = 0;
    bool wrapped = false;
    if (!cursor_.Next(process, vpn, wrapped)) {
      break;
    }
    host::ScanItem item;
    item.process = process;
    item.as = &process->address_space();
    item.pid = process->id();
    item.vpn = vpn;
    item.wrapped = wrapped;
    batch_.push_back(item);
  }
  NotifyPhase(ScanPhase::kBatchCollected);
  PruneDeadItems();
  // Pre-pass filter: hash only pages the serial scan body would hash. The
  // predicate mirrors ScanOne's path to Act (managed pages only relocate,
  // accessed/young candidates are skipped) and runs before any merge. It is
  // advisory: a wrong guess costs host time only — a skipped page that the
  // merge does hash goes through HashContent serially, and a wasted snapshot
  // is dropped by PrimeHash's generation check. (Items after a cursor wrap see
  // the pre-wrap round_ here; same advisory slack.)
  const auto filter = [this](const Pte& pte, const host::ScanItem& item) {
    if (pte.huge() && config_.thp_aware &&
        (item.vpn & (kPagesPerHugePage - 1)) != 0) {
      return false;  // THP considered only at its base VPN
    }
    const PageInfo* info = nullptr;
    const auto pit = pages_.find(item.process->id());
    if (pit != pages_.end()) {
      const auto it = pit->second.find(item.vpn);
      if (it != pit->second.end()) {
        info = &it->second;
      }
    }
    if (info != nullptr && info->managed) {
      return false;  // (fake) merged: re-randomized without rehashing
    }
    if (config_.working_set_estimation) {
      if (IdleTracker::IsAccessed(*item.as, item.vpn)) {
        return false;  // in the working set: candidacy is dropped, no hash
      }
      if (info == nullptr) {
        return false;  // first idle sighting only records candidacy
      }
      if (round_ < info->candidate_round + config_.min_idle_rounds) {
        return false;  // not idle long enough yet
      }
    }
    const FrameId frame =
        pte.frame + (pte.huge() ? (item.vpn & (kPagesPerHugePage - 1)) : 0);
    return machine_->memory().refcount(frame) == 0;  // fork-shared: kernel's CoW
  };
  pipeline_.Run(host_pool, batch_, timing_, filter, [this](host::ScanItem& item) {
    // A pruned item's process was torn down by the kBatchCollected hook; the
    // cursor-side effects (round wrap) still apply, the page itself is skipped.
    if (item.wrapped) {
      ++round_;
      ++stats_.full_scans;
    }
    if (item.process != nullptr) {
      ScanOne(*item.process, item.vpn);
    }
  });
}

void VUsionEngine::PruneDeadItems() {
  // Null out batch items whose process died in the kBatchCollected hook, keeping
  // the items themselves (their wrapped flags still drive round bookkeeping).
  for (host::ScanItem& item : batch_) {
    if (item.process != nullptr && machine_->processes()[item.pid] == nullptr) {
      item.process = nullptr;
      item.as = nullptr;
    }
  }
}

void VUsionEngine::ScanOne(Process& process, Vpn vpn) {
  ++stats_.pages_scanned;
  AddressSpace& as = process.address_space();
  Pte* pte = as.GetPte(vpn);
  if (pte == nullptr || pte->flags == 0) {
    return;
  }
  if (pte->huge()) {
    if (!config_.thp_aware) {
      // Maximum-fusion mode ("a la KSM", §8.1 with n=512): huge pages are broken
      // up as soon as the scanner reaches them so their subpages are tracked and
      // fused at 4 KB granularity.
      LatencyModel& lm = machine_->latency();
      lm.Charge(lm.config().huge_split);
      as.SplitHuge(vpn);
      lm.FlushPending();
      machine_->trace().Emit(machine_->clock().now(), TraceEventType::kSplit, process.id(),
                             vpn & ~(kPagesPerHugePage - 1), 0);
      ++stats_.thp_splits;
      pte = as.GetPte(vpn);
    } else if (vpn != (vpn & ~(kPagesPerHugePage - 1))) {
      // Performance mode ("a la Ingens", n=1): the THP is considered exactly once
      // per round, at its base VPN. The PMD's accessed bit covers the whole 2 MB
      // range, so per-subpage candidacy would misread it (the first visit clears
      // the bit and the siblings would wrongly look idle).
      return;
    }
  }
  ProcessPages& proc_pages = pages_[process.id()];
  const auto it = proc_pages.find(vpn);
  if (it != proc_pages.end() && it->second.managed) {
    // §7.1(iii): (fake) merged pages get a fresh random backing frame each round so
    // cross-round page coloring on the fault path learns nothing.
    if (config_.rerandomize_each_scan) {
      RelocateEntry(it->second.entry);
    }
    return;
  }
  if (config_.working_set_estimation) {
    const bool accessed = IdleTracker::TestAndClearAccessed(as, vpn);
    if (accessed) {
      // In the working set: not a fusion candidate; forget any candidacy.
      if (it != proc_pages.end()) {
        proc_pages.erase(it);
      }
      return;
    }
    if (it == proc_pages.end()) {
      // First time seen idle: becomes a candidate; act only after it stays idle
      // for min_idle_rounds full rounds (the one-round delay of Figure 10).
      proc_pages[vpn] = PageInfo{false, round_, nullptr};
      return;
    }
    if (round_ < it->second.candidate_round + config_.min_idle_rounds) {
      return;
    }
  }
  if (!pte->present()) {
    return;
  }
  if (machine_->memory().refcount(pte->frame) > 0) {
    return;  // fork-shared: the kernel owns this CoW state
  }
  Act(process, vpn, pte);
}

void VUsionEngine::Act(Process& process, Vpn vpn, Pte* pte) {
  AddressSpace& as = process.address_space();
  LatencyModel& lm = machine_->latency();
  if (pte->huge()) {
    // §8.1: a THP considered for fusion is first broken into normal pages (small
    // pages maximize sharing opportunities). Only this subpage proceeds now; the
    // cursor reaches its siblings later.
    lm.Charge(lm.config().huge_split);
    as.SplitHuge(vpn);
    lm.FlushPending();
    machine_->trace().Emit(machine_->clock().now(), TraceEventType::kSplit, process.id(),
                           vpn & ~(kPagesPerHugePage - 1), 0);
    ++stats_.thp_splits;
    pte = as.GetPte(vpn);
  }
  const FrameId old = pte->frame;
  content_.Hash(old);
  // Charged descent cost depends only on the tree's size, never its shape or
  // the host-side order it is sorted by.
  content_.ChargeTreeDescend(stable_.size());
  auto [node, steps] =
      stable_.Find([&](StableEntry* const& e) { return content_.HostOrder(old, e->frame); });

  // Injected merge abort, taking exactly the existing OOM bail-out: the page
  // stays unmanaged (its candidacy is forgotten) and no state was touched.
  if (FaultInjector* injector = chaos();
      injector != nullptr && injector->ShouldFail(FaultSite::kMergeAbort)) {
    injector->RecordDegradation();
    pages_[process.id()].erase(vpn);
    return;
  }
  const FrameId backing = AllocBacking();
  if (backing == kInvalidFrame) {
    pages_[process.id()].erase(vpn);
    return;  // OOM: do not act this round
  }
  lm.Charge(lm.config().page_copy_4k);

  StableEntry* entry = nullptr;
  if (node != nullptr) {
    // Real merge: join the existing entry, relocating it onto the fresh random
    // frame so the instruction stream matches the fake-merge path.
    entry = node->value;
    machine_->memory().CopyFrame(backing, entry->frame);
    for (const Sharer& sharer : entry->sharers) {
      lm.Charge(lm.config().pte_update);
      sharer.process->address_space().SetPte(sharer.vpn, Pte{backing, kManagedFlags});
    }
    deferred_.Push(entry->frame);
    deferred_.Push(old);
    entry->frame = backing;
    entry->relocated_round = round_;
    ++frames_saved_;
    ++stats_.merges;
    lm.FlushPending();
    machine_->trace().Emit(machine_->clock().now(), TraceEventType::kMerge, process.id(),
                           vpn, backing);
    const VmArea* vma = as.vmas().FindContaining(vpn);
    if (vma != nullptr) {
      stats_.RecordMergeType(vma->type);
    }
    if (machine_->memory().IsZero(backing)) {
      ++stats_.zero_page_merges;
    }
  } else {
    // Fake merge: same instructions - allocate, copy, queue the freed frame plus a
    // dummy entry, insert as a refcount-1 stable entry.
    machine_->memory().CopyFrame(backing, old);
    deferred_.Push(old);
    deferred_.PushDummy();
    entry = arena_.New<StableEntry>(StableEntry{backing, {}, round_, nullptr});
    content_.ChargeTreeDescend(stable_.size());
    auto [inserted, insert_steps] = stable_.Insert(entry);
    entry->node = inserted;
    ++stats_.fake_merges;
    lm.FlushPending();
    machine_->trace().Emit(machine_->clock().now(), TraceEventType::kFakeMerge,
                           process.id(), vpn, backing);
  }
  entry->sharers.push_back(Sharer{&process, vpn});
  lm.Charge(lm.config().pte_update);
  as.SetPte(vpn, Pte{entry->frame, kManagedFlags});
  machine_->memory().SetRefcount(entry->frame,
                                 static_cast<std::uint32_t>(entry->sharers.size()));
  pages_[process.id()][vpn] = PageInfo{true, round_, entry};
}

void VUsionEngine::RelocateEntry(StableEntry* entry) {
  if (entry->relocated_round == round_) {
    return;
  }
  const FrameId backing = AllocBacking();
  if (backing == kInvalidFrame) {
    return;
  }
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().page_copy_4k);
  machine_->memory().CopyFrame(backing, entry->frame);
  for (const Sharer& sharer : entry->sharers) {
    lm.Charge(lm.config().pte_update);
    sharer.process->address_space().SetPte(sharer.vpn, Pte{backing, kManagedFlags});
  }
  deferred_.Push(entry->frame);
  entry->frame = backing;
  entry->relocated_round = round_;
  machine_->memory().SetRefcount(backing, static_cast<std::uint32_t>(entry->sharers.size()));
  machine_->latency().FlushPending();
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kRelocate,
                         entry->sharers.empty() ? 0 : entry->sharers.front().process->id(),
                         entry->sharers.empty() ? 0 : entry->sharers.front().vpn, backing);
}

void VUsionEngine::DetachSharer(StableEntry* entry, const Process& process, Vpn vpn) {
  auto& sharers = entry->sharers;
  for (auto it = sharers.begin(); it != sharers.end(); ++it) {
    if (it->process == &process && it->vpn == vpn) {
      sharers.erase(it);
      return;
    }
  }
}

bool VUsionEngine::UnmergeTo(Process& process, Vpn vpn, PageInfo& info,
                             std::uint16_t new_flags) {
  StableEntry* entry = info.entry;
  LatencyModel& lm = machine_->latency();
  const FrameId fresh = AllocBacking();
  if (fresh == kInvalidFrame) {
    // Transient OOM (or an injected pool failure): leave the page (fake)
    // merged — PTE, entry, and refcount are untouched, so the caller can
    // simply retry later.
    if (FaultInjector* injector = chaos(); injector != nullptr) {
      injector->RecordRetry();
    }
    return false;
  }
  lm.Charge(lm.config().page_copy_4k);
  machine_->memory().CopyFrame(fresh, entry->frame);
  lm.Charge(lm.config().pte_update);
  process.address_space().SetPte(vpn, Pte{fresh, new_flags});

  DetachSharer(entry, process, vpn);
  const bool was_shared = !entry->sharers.empty();
  if (was_shared) {
    --frames_saved_;
    machine_->memory().SetRefcount(entry->frame,
                                   static_cast<std::uint32_t>(entry->sharers.size()));
    // Same instruction stream as the free below: queue a dummy (§7.1(ii)).
    if (config_.deferred_free) {
      deferred_.PushDummy();
    }
  } else {
    stable_.Remove(entry->node);
    if (config_.deferred_free) {
      deferred_.Push(entry->frame);
    } else {
      // Ablation: freeing in the fault handler reopens the timing channel.
      machine_->memory().SetRefcount(entry->frame, 0);
      machine_->FlushFrame(entry->frame);
      lm.Charge(lm.config().buddy_free);
      pool_.Free(entry->frame);
    }
    arena_.Delete(entry);
  }
  return true;
}

bool VUsionEngine::HandleFault(Process& process, const PageFault& fault) {
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return false;
  }
  const auto it = pit->second.find(fault.vpn);
  if (it == pit->second.end() || !it->second.managed) {
    return false;
  }
  // Copy-on-access: identical for merged and fake-merged pages (SB).
  const auto flags = static_cast<std::uint16_t>(
      kPtePresent | kPteWritable | kPteAccessed |
      (fault.access == AccessType::kWrite ? kPteDirty : 0));
  if (!UnmergeTo(process, fault.vpn, it->second, flags)) {
    // Nothing changed: keep the bookkeeping and claim the fault so the access
    // retries. Dropping the entry here would strand a managed PTE behind the
    // kernel's CoW handler and corrupt the shared frame's refcount.
    return true;
  }
  pit->second.erase(it);
  ++stats_.unmerges_coa;
  machine_->latency().FlushPending();
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kUnmergeCoa, process.id(),
                         fault.vpn, 0);
  return true;
}

bool VUsionEngine::OnUnmap(Process& process, Vpn vpn) {
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return false;
  }
  const auto it = pit->second.find(vpn);
  if (it == pit->second.end()) {
    return false;
  }
  if (!it->second.managed) {
    pit->second.erase(it);
    return false;  // candidate only: the kernel still owns the frame
  }
  StableEntry* entry = it->second.entry;
  DetachSharer(entry, process, vpn);
  if (entry->sharers.empty()) {
    stable_.Remove(entry->node);
    deferred_.Push(entry->frame);
    arena_.Delete(entry);
  } else {
    --frames_saved_;
    machine_->memory().SetRefcount(entry->frame,
                                   static_cast<std::uint32_t>(entry->sharers.size()));
  }
  pit->second.erase(it);
  return true;
}

bool VUsionEngine::AllowCollapse(Process& process, Vpn base) {
  if (config_.thp_aware) {
    return true;  // PrepareCollapse will (fake) unmerge managed subpages (§8.2)
  }
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return true;
  }
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    const auto it = pit->second.find(vpn);
    if (it != pit->second.end() && it->second.managed) {
      return false;
    }
  }
  return true;
}

bool VUsionEngine::PrepareCollapse(Process& process, Vpn base) {
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return true;
  }
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    const auto it = pit->second.find(vpn);
    if (it == pit->second.end()) {
      continue;
    }
    if (it->second.managed) {
      // (Fake) unmerge so khugepaged may copy the page into the new huge block.
      if (!UnmergeTo(process, vpn, it->second,
                     kPtePresent | kPteWritable | kPteAccessed)) {
        // Transient OOM: this subpage is still (fake) merged, so the range
        // cannot be collapsed. khugepaged simply retries the range later.
        return false;
      }
      ++stats_.unmerges_coa;
    }
    pit->second.erase(it);
  }
  return true;
}

void VUsionEngine::OnUnregister(Process& process, Vpn start, std::uint64_t pages) {
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return;
  }
  for (Vpn vpn = start; vpn < start + pages; ++vpn) {
    const auto it = pit->second.find(vpn);
    if (it == pit->second.end()) {
      continue;
    }
    if (it->second.managed) {
      if (!UnmergeTo(process, vpn, it->second,
                     kPtePresent | kPteWritable | kPteAccessed)) {
        // Transient OOM: keep the page managed (and tracked) rather than
        // stranding a fused PTE with no bookkeeping; a later access or scan
        // round unmerges it.
        continue;
      }
      ++stats_.unmerges_coa;
    }
    pit->second.erase(it);
  }
}

void VUsionEngine::OnProcessDestroy(Process& process) {
  // Managed pages were detached through OnUnmap during teardown; dropping the
  // process's bucket releases any remaining candidate bookkeeping in O(its pages).
  pages_.erase(process.id());
}

void VUsionEngine::AuditInvariants(AuditContext& ctx) const {
  const auto& processes = machine_->processes();
  PhysicalMemory& memory = machine_->memory();

  // Per-process page map: every tracked page belongs to a live process, managed
  // pages sit behind the exact SB PTE encoding, candidates carry no entry.
  std::unordered_map<const StableEntry*, std::size_t> tracked_sharers;
  std::size_t managed_pages = 0;
  for (const auto& [pid, proc_pages] : pages_) {
    if (!ctx.Check(pid < processes.size() && processes[pid] != nullptr, [&] {
          return "vusion: page map holds bucket for dead process " +
                 std::to_string(pid);
        })) {
      continue;
    }
    const AddressSpace& as = processes[pid]->address_space();
    for (const auto& [vpn, info] : proc_pages) {
      if (!info.managed) {
        ctx.Check(info.entry == nullptr, [&] {
          return "vusion: candidate (" + std::to_string(pid) + "," +
                 std::to_string(vpn) + ") carries a stable entry";
        });
        continue;
      }
      ++managed_pages;
      if (!ctx.Check(info.entry != nullptr, [&] {
            return "vusion: managed page (" + std::to_string(pid) + "," +
                   std::to_string(vpn) + ") has no stable entry";
          })) {
        continue;
      }
      ++tracked_sharers[info.entry];
      const Pte* pte = as.GetPte(vpn);
      ctx.Check(
          pte != nullptr && pte->flags == kManagedFlags &&
              pte->frame == info.entry->frame,
          [&] {
            return "vusion: managed page (" + std::to_string(pid) + "," +
                   std::to_string(vpn) +
                   ") PTE does not carry the SB encoding for frame " +
                   std::to_string(info.entry->frame);
          });
    }
  }

  // Stable tree: refcounts, census counts, and sharer lists must agree, and the
  // sharer lists must be exactly the managed pages above (bijection).
  std::size_t tree_sharers = 0;
  stable_.InOrder([&](StableEntry* const& entry) {
    const std::string frame_str = std::to_string(entry->frame);
    tree_sharers += entry->sharers.size();
    ctx.Check(!entry->sharers.empty(), [&] {
      return "vusion: stable entry for frame " + frame_str + " has no sharers";
    });
    ctx.Check(memory.allocated(entry->frame), [&] {
      return "vusion: stable entry points at free frame " + frame_str;
    });
    ctx.Check(memory.refcount(entry->frame) == entry->sharers.size(), [&] {
      return "vusion: frame " + frame_str + " refcount " +
             std::to_string(memory.refcount(entry->frame)) + " != " +
             std::to_string(entry->sharers.size()) + " sharers";
    });
    ctx.Check(ctx.mapped(entry->frame) == entry->sharers.size(), [&] {
      return "vusion: frame " + frame_str + " mapped by " +
             std::to_string(ctx.mapped(entry->frame)) + " PTEs, " +
             std::to_string(entry->sharers.size()) + " sharers";
    });
    ctx.Check(ctx.writable(entry->frame) == 0, [&] {
      return "vusion: (fake) merged frame " + frame_str +
             " has a writable mapping";
    });
    const auto it = tracked_sharers.find(entry);
    ctx.Check(it != tracked_sharers.end() && it->second == entry->sharers.size(),
              [&] {
                return "vusion: frame " + frame_str + " tracked by " +
                       std::to_string(
                           it == tracked_sharers.end() ? 0 : it->second) +
                       " page-map entries, " +
                       std::to_string(entry->sharers.size()) + " sharers";
              });
    for (const Sharer& sharer : entry->sharers) {
      const std::uint32_t pid = sharer.process->id();
      ctx.Check(pid < processes.size() && processes[pid].get() == sharer.process,
                [&] {
        return "vusion: frame " + frame_str +
               " sharer points at dead process " + std::to_string(pid);
      });
    }
  });
  ctx.Check(tree_sharers == managed_pages, [&] {
    return "vusion: tree lists " + std::to_string(tree_sharers) +
           " sharers but page map tracks " + std::to_string(managed_pages) +
           " managed pages";
  });

  // Engine-held reserves: deferred-free frames and pool slots are allocated,
  // unmapped, refcount-0, and owned by exactly one holder.
  for (const FrameId frame : deferred_.pending_frames()) {
    ctx.OwnFrame(frame, "vusion.deferred");
    ctx.Check(memory.allocated(frame) && memory.refcount(frame) == 0 &&
                  ctx.mapped(frame) == 0,
              [&] {
                return "vusion: deferred-free frame " + std::to_string(frame) +
                       " is still live (mapped or refcounted)";
              });
  }
  for (const FrameId frame : pool_.slots()) {
    ctx.OwnFrame(frame, "vusion.pool");
    ctx.Check(memory.allocated(frame) && memory.refcount(frame) == 0 &&
                  ctx.mapped(frame) == 0,
              [&] {
                return "vusion: pool slot frame " + std::to_string(frame) +
                       " is still live (mapped or refcounted)";
              });
  }
}

void VUsionEngine::ForEachStableEntry(
    const std::function<void(FrameId, const std::vector<std::pair<std::uint32_t, Vpn>>&)>& fn)
    const {
  stable_.InOrder([&fn](StableEntry* const& e) {
    std::vector<std::pair<std::uint32_t, Vpn>> sharers;
    for (const Sharer& s : e->sharers) {
      sharers.emplace_back(s.process->id(), s.vpn);
    }
    fn(e->frame, sharers);
  });
}

bool VUsionEngine::IsManaged(const Process& process, Vpn vpn) const {
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return false;
  }
  const auto it = pit->second.find(vpn);
  return it != pit->second.end() && it->second.managed;
}

bool VUsionEngine::IsShared(const Process& process, Vpn vpn) const {
  const auto pit = pages_.find(process.id());
  if (pit == pages_.end()) {
    return false;
  }
  const auto it = pit->second.find(vpn);
  return it != pit->second.end() && it->second.managed && it->second.entry->sharers.size() > 1;
}

// --- Savestates (DESIGN.md §13) ---

namespace {

Process* VuLiveProcess(Machine& machine, std::uint32_t pid) {
  const auto& processes = machine.processes();
  if (pid >= processes.size() || processes[pid] == nullptr) {
    throw snapshot::RestoreError("engine",
                                 "sharer references dead process " + std::to_string(pid));
  }
  return processes[pid].get();
}

constexpr std::uint32_t kVuNoEntry = 0xffffffffu;

}  // namespace

void VUsionEngine::SaveState(snapshot::SnapshotWriter& w) const {
  SaveCommon(w);
  const ScanCursor::State cur = cursor_.state();
  w.U64(cur.process_idx);
  w.U64(cur.vma_idx);
  w.U64(cur.page_idx);

  // Stable tree, structurally (preorder with colors): Find results under
  // shared-frame content corruption depend on the exact node layout, so the
  // restored tree must be the recorded shape, not a re-insertion.
  std::unordered_map<const StableEntry*, std::uint32_t> index_of;
  w.U64(stable_.size());
  stable_.ExportPreorder([&](StableEntry* const& e, bool red, bool has_left,
                             bool has_right) {
    index_of.emplace(e, static_cast<std::uint32_t>(index_of.size()));
    w.U32(e->frame);
    w.U64(e->relocated_round);
    w.U32(static_cast<std::uint32_t>(e->sharers.size()));
    for (const Sharer& s : e->sharers) {
      w.U32(s.process->id());
      w.U64(s.vpn);
    }
    w.Bool(red);
    w.Bool(has_left);
    w.Bool(has_right);
  });

  pool_.SaveState(w);
  deferred_.SaveState(w);

  std::vector<std::uint32_t> pids;
  pids.reserve(pages_.size());
  for (const auto& [pid, pages] : pages_) {
    pids.push_back(pid);
  }
  std::sort(pids.begin(), pids.end());
  w.U64(pids.size());
  for (const std::uint32_t pid : pids) {
    const ProcessPages& pages = pages_.at(pid);
    w.U32(pid);
    std::vector<Vpn> vpns;
    vpns.reserve(pages.size());
    for (const auto& [vpn, info] : pages) {
      vpns.push_back(vpn);
    }
    std::sort(vpns.begin(), vpns.end());
    w.U64(vpns.size());
    for (const Vpn vpn : vpns) {
      const PageInfo& info = pages.at(vpn);
      w.U64(vpn);
      w.Bool(info.managed);
      w.U64(info.candidate_round);
      w.U32(info.entry == nullptr ? kVuNoEntry : index_of.at(info.entry));
    }
  }

  w.U64(round_);
  w.U64(frames_saved_);
}

void VUsionEngine::RestoreState(snapshot::SnapshotReader& r) {
  RestoreCommon(r);
  // Restore runs after Install, and Machine::Restore may have created a fault
  // injector that did not exist at install time — re-sync the pool's pointer.
  pool_.set_fault_injector(machine_->chaos());
  ScanCursor::State cur;
  cur.process_idx = static_cast<std::size_t>(r.U64());
  cur.vma_idx = static_cast<std::size_t>(r.U64());
  cur.page_idx = r.U64();
  cursor_.RestoreState(cur);

  const std::uint64_t node_count = r.Count(19);
  std::vector<StableEntry*> entries;
  entries.reserve(node_count);
  stable_.ImportPreorder(
      static_cast<std::size_t>(node_count),
      [&](bool& red, bool& has_left, bool& has_right) -> StableEntry* {
        auto* e = arena_.New<StableEntry>(StableEntry{});
        e->frame = r.U32();
        e->relocated_round = r.U64();
        const std::uint32_t sharer_count = r.U32();
        e->sharers.reserve(std::min<std::uint32_t>(sharer_count, 4096));
        for (std::uint32_t i = 0; i < sharer_count; ++i) {
          const std::uint32_t pid = r.U32();
          const Vpn vpn = r.U64();
          e->sharers.push_back(Sharer{VuLiveProcess(*machine_, pid), vpn});
        }
        red = r.Bool();
        has_left = r.Bool();
        has_right = r.Bool();
        entries.push_back(e);
        return e;
      },
      [](Tree::Node* node) { node->value->node = node; });

  pool_.RestoreState(r);
  deferred_.RestoreState(r);

  pages_.clear();
  const std::uint64_t pid_count = r.Count(13);
  for (std::uint64_t p = 0; p < pid_count; ++p) {
    const std::uint32_t pid = r.U32();
    ProcessPages& pages = pages_[pid];
    const std::uint64_t page_count = r.Count(21);
    pages.reserve(static_cast<std::size_t>(page_count));
    for (std::uint64_t i = 0; i < page_count; ++i) {
      const Vpn vpn = r.U64();
      PageInfo info;
      info.managed = r.Bool();
      info.candidate_round = r.U64();
      const std::uint32_t entry_idx = r.U32();
      if (entry_idx != kVuNoEntry) {
        if (entry_idx >= entries.size()) {
          throw snapshot::RestoreError("engine", "page entry index out of range");
        }
        info.entry = entries[entry_idx];
      }
      if (!pages.emplace(vpn, info).second) {
        throw snapshot::RestoreError("engine", "duplicate tracked page");
      }
    }
  }

  round_ = r.U64();
  frames_saved_ = r.U64();
}

}  // namespace vusion
