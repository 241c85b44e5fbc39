#include "src/fusion/wpf.h"

#include "src/snapshot/io.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace vusion {

Wpf::Wpf(Machine& machine, const FusionConfig& config)
    : FusionEngine(machine, config),
      content_(machine),
      pipeline_(machine.memory()),
      linear_(machine.buddy(), machine.memory()) {}

std::size_t Wpf::combined_pages() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    count += shard.size();
  }
  return count;
}

void Wpf::Run() {
  if (SkipWake()) {
    return;
  }
  DoFusionPass();
  next_run_ = machine_->clock().now() + config_.wpf_period;
}

void Wpf::DoFusionPass() {
  const auto scan_start = std::chrono::steady_clock::now();
  NotifyPhase(ScanPhase::kQuantumStart);
  FaultInjector* injector = chaos();
  linear_.set_fault_injector(injector);
  // MiAllocatePagesForMdl restarts its reclaim scan from the top of memory on
  // every pass - the root of the predictable-reuse behaviour.
  linear_.ResetScan();
  pass_allocations_.emplace_back();

  // Phase 1: hash every candidate page (WPF has no opt-in; all mapped small pages
  // of every process are candidates).
  std::vector<Candidate> candidates;
  bool interrupted = false;
  for (const auto& process : machine_->processes()) {
    if (process == nullptr || interrupted) {
      continue;
    }
    AddressSpace& as = process->address_space();
    for (const VmArea& vma : as.vmas().areas()) {
      if (interrupted) {
        break;
      }
      for (Vpn vpn = vma.start; vpn < vma.end(); ++vpn) {
        // Injected scan interruption: the pass proceeds with the candidates
        // collected so far (the rest wait for the next 15-minute pass).
        if (injector != nullptr && injector->ShouldFail(FaultSite::kScanInterrupt)) {
          injector->RecordDegradation();
          interrupted = true;
          break;
        }
        CollectOne(*process, vpn, injector, candidates);
      }
    }
  }
  NotifyPhase(ScanPhase::kBatchCollected);
  PruneDeadCandidates(candidates);
  HashCandidates(candidates);
  timing_.scan_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count());
  NotifyPhase(ScanPhase::kHashed);
  PruneDeadCandidates(candidates);

  // The sorted-hash list of Figure 2; ties broken by (process, vpn) so passes are
  // deterministic.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.hash != b.hash) {
      return a.hash < b.hash;
    }
    if (a.pid != b.pid) {
      return a.pid < b.pid;
    }
    return a.vpn < b.vpn;
  });

  // Phase 2: pages whose content was fused in an earlier pass join the existing
  // combined page.
  std::vector<Candidate> remaining;
  remaining.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    Shard& shard = shards_[c.hash % kShards];
    content_.ChargeTreeDescend(shard.size());
    // Equal fingerprint: verify by bytes. Among hash-colliding entries the
    // smallest frame whose content matches wins.
    Combined* entry = nullptr;
    for (auto it = shard.lower_bound({c.hash, 0}); it != shard.end() && it->first.first == c.hash;
         ++it) {
      if (machine_->memory().Compare(c.frame, it->second.frame) == 0) {
        entry = &it->second;
        break;
      }
    }
    if (entry != nullptr) {
      MergeIntoCombined(c, entry);
    } else {
      remaining.push_back(c);
    }
  }

  // Phase 3: group fresh duplicates (equal hash runs, verified by content) and
  // count how many new combined pages are needed.
  std::vector<std::vector<const Candidate*>> groups;
  for (std::size_t i = 0; i < remaining.size();) {
    std::size_t j = i + 1;
    while (j < remaining.size() && remaining[j].hash == remaining[i].hash) {
      ++j;
    }
    if (j - i >= 2) {
      // Partition the equal-hash run by true content (hash collisions are possible).
      std::vector<bool> used(j - i, false);
      for (std::size_t a = i; a < j; ++a) {
        if (used[a - i]) {
          continue;
        }
        std::vector<const Candidate*> group{&remaining[a]};
        for (std::size_t b = a + 1; b < j; ++b) {
          if (!used[b - i] && content_.Matches(remaining[a].frame, remaining[b].frame)) {
            used[b - i] = true;
            group.push_back(&remaining[b]);
          }
        }
        if (group.size() >= 2) {
          groups.push_back(std::move(group));
        }
      }
    }
    i = j;
  }

  // Phase 4: one MiAllocatePagesForMdl call for all the frames this pass needs.
  // In-use candidate pages near the end of memory are *stolen* (relocated onto a
  // fresh frame) rather than skipped, matching the reverse-engineered routine; this
  // is what makes frame reuse across passes near-perfect (Figure 3).
  LatencyModel& lm = machine_->latency();
  std::unordered_map<FrameId, Candidate*> frame_owner;
  for (Candidate& c : remaining) {
    frame_owner[c.frame] = &c;
  }
  const auto try_steal = [&](FrameId frame) {
    const auto it = frame_owner.find(frame);
    if (it == frame_owner.end()) {
      return false;  // not a page we may move (combined, page table, ...)
    }
    Candidate* owner = it->second;
    AddressSpace& as = owner->process->address_space();
    Pte* pte = as.GetPte(owner->vpn);
    if (pte == nullptr || !pte->present() || pte->huge() || pte->frame != frame) {
      return false;
    }
    const FrameId relocated = machine_->buddy().Allocate();
    if (relocated == kInvalidFrame) {
      return false;
    }
    lm.Charge(lm.config().page_copy_4k);
    machine_->memory().CopyFrame(relocated, frame);
    lm.Charge(lm.config().pte_update);
    as.SetPte(owner->vpn, Pte{relocated, pte->flags});
    machine_->FlushFrame(frame);
    machine_->buddy().Free(frame);
    frame_owner.erase(it);
    owner->frame = relocated;
    frame_owner[relocated] = owner;
    return true;
  };
  const std::vector<FrameId> fresh = linear_.AllocateRunWithSteal(groups.size(), try_steal);
  for (std::size_t g = 0; g < groups.size() && g < fresh.size(); ++g) {
    const FrameId combined_frame = fresh[g];
    const std::uint64_t hash = groups[g][0]->hash;
    lm.Charge(lm.config().page_copy_4k);
    machine_->memory().CopyFrame(combined_frame, groups[g][0]->frame);
    Shard& shard = shards_[hash % kShards];
    content_.ChargeTreeDescend(shard.size());
    Combined* entry =
        &shard.emplace(std::pair{hash, combined_frame}, Combined{combined_frame, 0, hash})
             .first->second;
    pass_allocations_.back().push_back(combined_frame);
    for (const Candidate* member : groups[g]) {
      MergeIntoCombined(*member, entry);
    }
    if (entry->refs == 0) {
      // Every member's merge aborted (pages changed under us / injected
      // aborts): an unreferenced Combined entry would leak its frame forever.
      // Undo the insertion entirely.
      EraseCombined(*entry);
      pass_allocations_.back().pop_back();
      if (injector != nullptr) {
        injector->RecordDegradation();
      }
    }
  }
  ++stats_.full_scans;
  NotifyPhase(ScanPhase::kQuantumEnd);
}

void Wpf::CollectOne(Process& process, Vpn vpn, FaultInjector* injector,
                     std::vector<Candidate>& candidates) {
  const Pte* pte = process.address_space().GetPte(vpn);
  if (pte == nullptr || !pte->present() || pte->huge() || pte->reserved_trap()) {
    return;
  }
  if (rmap_.contains(KeyOf(process, vpn))) {
    return;  // already fused
  }
  if (machine_->memory().refcount(pte->frame) > 0) {
    return;  // fork-shared: the kernel owns this CoW state
  }
  // Injected stale content fingerprint: treat the page as too volatile to be a
  // candidate this pass.
  if (injector != nullptr && injector->ShouldFail(FaultSite::kStaleChecksum)) {
    injector->RecordDegradation();
    return;
  }
  ++stats_.pages_scanned;
  Candidate c;
  c.process = &process;
  c.pid = process.id();
  c.vpn = vpn;
  c.frame = pte->frame;
  candidates.push_back(c);
}

void Wpf::PruneDeadCandidates(std::vector<Candidate>& candidates) const {
  // A phase hook may tear processes down mid-pass; drop their candidates before
  // anything dereferences the stale Process pointers or recycled frames.
  std::erase_if(candidates, [this](const Candidate& c) {
    return machine_->processes()[c.pid] == nullptr;
  });
}

void Wpf::HashCandidates(std::vector<Candidate>& candidates) {
  if (host::ThreadPool* pool = machine_->HostPool(config_.scan_threads)) {
    // Streamed hashing warms the host-side hash memos. Frames are preset, so the
    // pipeline skips PTE resolution; the merge callback then issues the same
    // charged Hash calls the reference path does, hitting the primed memo. It
    // mutates nothing a hash worker reads (charges + memo only).
    std::vector<host::ScanItem> items(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      items[i].frame = candidates[i].frame;
      items[i].index = i;
    }
    pipeline_.Run(*pool, items, timing_, [&](host::ScanItem& item) {
      Candidate& c = candidates[item.index];
      c.hash = content_.Hash(c.frame);
    });
    return;
  }
  timing_.items += candidates.size();
  for (Candidate& c : candidates) {
    c.hash = content_.Hash(c.frame);
  }
}

void Wpf::MergeIntoCombined(const Candidate& candidate, Combined* entry) {
  if (FaultInjector* injector = chaos();
      injector != nullptr && injector->ShouldFail(FaultSite::kMergeAbort)) {
    injector->RecordDegradation();
    return;  // the page stays private; a later pass may retry
  }
  AddressSpace& as = candidate.process->address_space();
  Pte* pte = as.GetPte(candidate.vpn);
  if (pte == nullptr || !pte->present() || pte->huge() || pte->frame != candidate.frame) {
    return;  // the page changed under us; skip
  }
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().pte_update);
  const auto accessed = static_cast<std::uint16_t>(pte->flags & kPteAccessed);
  as.SetPte(candidate.vpn, Pte{entry->frame,
                               static_cast<std::uint16_t>(kPtePresent | kPteCow | accessed)});
  ++entry->refs;
  if (entry->refs > 1) {
    ++frames_saved_;
  }
  machine_->memory().SetRefcount(entry->frame, entry->refs);
  rmap_[KeyOf(*candidate.process, candidate.vpn)] = entry;
  machine_->FlushFrame(candidate.frame);
  lm.Charge(lm.config().buddy_free);
  machine_->buddy().Free(candidate.frame);
  ++stats_.merges;
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kMerge,
                         candidate.process->id(), candidate.vpn, entry->frame);
  stats_.LogAllocation(entry->frame);
  const VmArea* vma = as.vmas().FindContaining(candidate.vpn);
  if (vma != nullptr) {
    stats_.RecordMergeType(vma->type);
  }
  if (machine_->memory().IsZero(entry->frame)) {
    ++stats_.zero_page_merges;
  }
}

void Wpf::DropRef(Combined* entry) {
  if (entry->refs > 1) {
    --frames_saved_;
  }
  --entry->refs;
  if (entry->refs == 0) {
    // Freed near the end of memory; the next pass's linear scan re-claims it.
    EraseCombined(*entry);
  } else {
    machine_->memory().SetRefcount(entry->frame, entry->refs);
  }
}

void Wpf::EraseCombined(const Combined& entry) {
  // The immutable (sort_hash, frame) key finds the entry even if its content
  // was mutated.
  const FrameId frame = entry.frame;
  Shard& shard = shards_[entry.sort_hash % kShards];
  content_.ChargeTreeDescend(shard.size());
  shard.erase({entry.sort_hash, frame});
  machine_->FlushFrame(frame);
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().buddy_free);
  machine_->buddy().Free(frame);
}

bool Wpf::HandleFault(Process& process, const PageFault& fault) {
  const auto it = rmap_.find(KeyOf(process, fault.vpn));
  if (it == rmap_.end()) {
    return false;
  }
  Combined* entry = it->second;
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().buddy_alloc);
  const FrameId fresh = machine_->buddy().Allocate();
  if (fresh == kInvalidFrame) {
    // Allocation failed (transient or genuine OOM): keep the page fused and
    // let the access path retry the fault. Returning false would let the
    // kernel's CoW handler unshare an engine-owned frame behind the rmap.
    return true;
  }
  lm.Charge(lm.config().page_copy_4k);
  machine_->memory().CopyFrame(fresh, entry->frame);
  lm.Charge(lm.config().pte_update);
  process.address_space().SetPte(
      fault.vpn, Pte{fresh, static_cast<std::uint16_t>(
                                kPtePresent | kPteWritable | kPteAccessed |
                                (fault.access == AccessType::kWrite ? kPteDirty : 0))});
  rmap_.erase(it);
  DropRef(entry);
  ++stats_.unmerges_cow;
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kUnmergeCow, process.id(),
                         fault.vpn, fresh);
  return true;
}

bool Wpf::OnUnmap(Process& process, Vpn vpn) {
  const auto it = rmap_.find(KeyOf(process, vpn));
  if (it == rmap_.end()) {
    return false;
  }
  Combined* entry = it->second;
  rmap_.erase(it);
  DropRef(entry);
  return true;
}

bool Wpf::AllowCollapse(Process& process, Vpn base) {
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    if (rmap_.contains(KeyOf(process, vpn))) {
      return false;
    }
  }
  return true;
}

bool Wpf::IsMerged(const Process& process, Vpn vpn) const {
  return rmap_.contains(KeyOf(process, vpn));
}

void Wpf::AuditInvariants(AuditContext& ctx) const {
  const auto& processes = machine_->processes();
  PhysicalMemory& memory = machine_->memory();

  std::unordered_map<const Combined*, std::uint32_t> rmap_refs;
  for (const auto& [key, entry] : rmap_) {
    const auto pid = static_cast<std::uint32_t>(key >> 40);
    const Vpn vpn = key ^ (static_cast<std::uint64_t>(pid) << 40);
    ++rmap_refs[entry];
    if (!ctx.Check(pid < processes.size() && processes[pid] != nullptr, [&] {
          return "wpf: rmap entry for dead process " + std::to_string(pid);
        })) {
      continue;
    }
    const Pte* pte = processes[pid]->address_space().GetPte(vpn);
    ctx.Check(pte != nullptr && pte->present() && pte->frame == entry->frame,
              [&] {
                return "wpf: rmap (" + std::to_string(pid) + "," +
                       std::to_string(vpn) + ") does not map combined frame " +
                       std::to_string(entry->frame);
              });
    ctx.Check(pte == nullptr || (!pte->writable() && pte->cow()), [&] {
      return "wpf: fused page (" + std::to_string(pid) + "," +
             std::to_string(vpn) + ") is not read-only CoW";
    });
  }

  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard) {
      const std::string frame_str = std::to_string(entry.frame);
      ctx.Check(entry.refs >= 1, [&] {
        return "wpf: combined entry for frame " + frame_str + " has zero refs";
      });
      ctx.Check(memory.allocated(entry.frame), [&] {
        return "wpf: combined entry points at free frame " + frame_str;
      });
      ctx.Check(memory.refcount(entry.frame) == entry.refs, [&] {
        return "wpf: frame " + frame_str + " refcount " +
               std::to_string(memory.refcount(entry.frame)) +
               " != entry refs " + std::to_string(entry.refs);
      });
      ctx.Check(ctx.mapped(entry.frame) == entry.refs, [&] {
        return "wpf: frame " + frame_str + " mapped by " +
               std::to_string(ctx.mapped(entry.frame)) + " PTEs, entry refs " +
               std::to_string(entry.refs);
      });
      ctx.Check(ctx.writable(entry.frame) == 0, [&] {
        return "wpf: fused frame " + frame_str + " has a writable mapping";
      });
      const auto it = rmap_refs.find(&entry);
      ctx.Check(it != rmap_refs.end() && it->second == entry.refs, [&] {
        return "wpf: frame " + frame_str + " rmap count " +
               std::to_string(it == rmap_refs.end() ? 0 : it->second) +
               " != entry refs " + std::to_string(entry.refs);
      });
    }
  }
}

// --- Savestates (DESIGN.md §13) ---

void Wpf::SaveState(snapshot::SnapshotWriter& w) const {
  SaveCommon(w);
  w.U32(linear_.scan_cursor());

  // Combined entries in key order, shard by shard; the rmap references them
  // by their index in this list.
  std::unordered_map<const Combined*, std::uint32_t> index_of;
  w.U64(combined_pages());
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard) {
      index_of.emplace(&entry, static_cast<std::uint32_t>(index_of.size()));
      w.U32(entry.frame);
      w.U32(entry.refs);
      w.U64(entry.sort_hash);
    }
  }

  std::vector<std::uint64_t> keys;
  keys.reserve(rmap_.size());
  for (const auto& [key, entry] : rmap_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  w.U64(keys.size());
  for (const std::uint64_t key : keys) {
    w.U64(key);
    w.U32(index_of.at(rmap_.at(key)));
  }

  w.U64(pass_allocations_.size());
  for (const std::vector<FrameId>& pass : pass_allocations_) {
    w.U64(pass.size());
    for (const FrameId frame : pass) {
      w.U32(frame);
    }
  }

  w.U64(frames_saved_);
}

void Wpf::RestoreState(snapshot::SnapshotReader& r) {
  RestoreCommon(r);
  // The injector is created by Machine::Restore after Install already wired
  // the linear allocator — re-sync so restored runs see the same fault stream.
  linear_.set_fault_injector(chaos());
  linear_.set_scan_cursor(r.U32());

  const std::uint64_t entry_count = r.Count(16);
  std::vector<Combined*> entries;
  entries.reserve(static_cast<std::size_t>(entry_count));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    Combined entry;
    entry.frame = r.Frame(machine_->memory().frame_count());
    entry.refs = r.U32();
    entry.sort_hash = r.U64();
    const auto [it, inserted] = shards_[entry.sort_hash % kShards].emplace(
        std::pair{entry.sort_hash, entry.frame}, entry);
    if (!inserted) {
      throw snapshot::RestoreError("engine", "duplicate combined entry");
    }
    entries.push_back(&it->second);
  }

  rmap_.clear();
  const std::uint64_t rmap_count = r.Count(12);
  rmap_.reserve(static_cast<std::size_t>(rmap_count));
  for (std::uint64_t i = 0; i < rmap_count; ++i) {
    const std::uint64_t key = r.U64();
    const std::uint32_t entry_idx = r.U32();
    if (entry_idx >= entries.size()) {
      throw snapshot::RestoreError("engine", "rmap entry index out of range");
    }
    if (!rmap_.emplace(key, entries[entry_idx]).second) {
      throw snapshot::RestoreError("engine", "duplicate rmap key");
    }
  }

  pass_allocations_.clear();
  const std::uint64_t pass_count = r.Count(8);
  pass_allocations_.reserve(static_cast<std::size_t>(pass_count));
  for (std::uint64_t p = 0; p < pass_count; ++p) {
    const std::uint64_t frame_count = r.Count(4);
    std::vector<FrameId> pass;
    pass.reserve(static_cast<std::size_t>(frame_count));
    for (std::uint64_t i = 0; i < frame_count; ++i) {
      pass.push_back(r.U32());
    }
    pass_allocations_.push_back(std::move(pass));
  }

  frames_saved_ = r.U64();
}

}  // namespace vusion
