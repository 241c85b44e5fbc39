#include "src/fusion/ksm.h"

#include "src/snapshot/io.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace vusion {

// Tree comparators are pure host-side content orderings; the modeled descent cost
// is charged explicitly (ChargeTreeDescend) at each lookup/insert site.
int Ksm::StableCompare::operator()(StableEntry* const& a, StableEntry* const& b) const {
  return ksm->content_.HostOrder(a->frame, b->frame);
}

Ksm::Ksm(Machine& machine, const FusionConfig& config)
    : FusionEngine(machine, config),
      content_(machine),
      cursor_(machine),
      pipeline_(machine.memory()),
      stable_(StableCompare{this}) {
  stable_.SetNodeArena(&arena_);
}

Ksm::~Ksm() {
  stable_.InOrder([this](StableEntry* const& e) { arena_.Delete(e); });
}

const char* Ksm::name() const {
  if (config_.zero_pages_only) {
    return "KSM-zero-only";
  }
  return config_.unmerge_on_any_access ? "KSM-CoA" : "KSM";
}

std::uint16_t Ksm::MergedFlags(std::uint16_t accessed_bit) const {
  std::uint16_t flags = kPtePresent | kPteCow | accessed_bit;
  if (config_.unmerge_on_any_access) {
    // Figure 4 variant: unmerge on *any* access; reserved bits trap reads too.
    flags |= kPteReserved;
  }
  return flags;
}

void Ksm::Run() {
  if (SkipWake()) {
    return;
  }
  const auto scan_start = std::chrono::steady_clock::now();
  NotifyPhase(ScanPhase::kQuantumStart);
  // Fetched every quantum: the Machine replaces its pool when another engine
  // asks for more threads.
  ScanQuantum(machine_->HostPool(config_.scan_threads));
  NotifyPhase(ScanPhase::kQuantumEnd);
  timing_.scan_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count());
  next_run_ = machine_->clock().now() + config_.wake_period;
}

void Ksm::ScanQuantum(host::ThreadPool* pool) {
  // Collect the quantum, then scan it. ScanOne never changes the process list,
  // VMA layout, or mergeable flags (only PTEs and frame contents), so the
  // cursor yields the sequence a page-by-page loop would, and with no phase
  // hook in between no collected page can belong to a dead process.
  FaultInjector* injector = chaos();
  batch_.clear();
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
    host::ScanItem item;
    item.process = process;
    item.as = &process->address_space();
    item.vpn = vpn;
    item.wrapped = wrapped;
    batch_.push_back(item);
  }
  const auto scan = [this](host::ScanItem& item) {
    if (item.wrapped) {
      // A full round completed: the unstable tree is rebuilt from scratch.
      UnstableClear();
      ++stats_.full_scans;
    }
    ScanOne(*item.process, item.vpn);
  };
  if (pool != nullptr) {
    pipeline_.Run(*pool, batch_, timing_, scan);
    return;
  }
  timing_.items += batch_.size();
  for (host::ScanItem& item : batch_) {
    scan(item);
  }
}

void Ksm::ScanOne(Process& process, Vpn vpn) {
  ++stats_.pages_scanned;
  const std::uint32_t pid = process.id();
  Pte* pte = process.address_space().GetPte(vpn);
  // Unmapped pages and reserved-bit traps are skipped. In the copy-on-access
  // variant merged pages themselves carry the reserved trap; they are skipped
  // too, since they are already merged.
  if (pte == nullptr || !pte->present() || pte->reserved_trap()) {
    return;
  }
  FrameId frame = pte->frame;
  if (pte->huge()) {
    frame += static_cast<FrameId>(vpn & (kPagesPerHugePage - 1));
  }
  PhysicalMemory& memory = machine_->memory();
  // Peek the next page's PTE — for 511 of 512 vpns it is the adjacent entry in
  // the same leaf table, already in cache — and warm its frame's metadata line
  // (refcount, hash memo) a whole page-scan ahead of its own scan.
  if (!pte->huge() && (vpn & (kPagesPerHugePage - 1)) != kPagesPerHugePage - 1) {
    const Pte& next = pte[1];
    if (next.present() && !next.huge()) {
      memory.PrefetchFrame(next.frame);
    }
  }
  if (memory.refcount(frame) > 0) {
    // Either already merged (stable frames keep refcount == entry->refs > 0;
    // AuditInvariants asserts exactly this) or fork-shared with another
    // process, whose CoW state the kernel owns: nothing to do.
    return;
  }
  if (config_.zero_pages_only && !memory.IsZero(frame)) {
    return;
  }
  // content_.Hash(frame) — the per-scan checksum KSM computes — unrolled so the
  // upcoming table probes (fingerprint slot, stable-content index bucket, this
  // page's checksum-gate slot) are prefetched before the hash's charge and the
  // stable descend charge run. Charge order and value are exactly those of
  // content_.Hash.
  const std::uint64_t hash = memory.HashContent(frame);
  if (!fps_slots_.empty()) {
    __builtin_prefetch(&fps_slots_[FpIndex(hash)]);
  }
  stable_index_.Prefetch(hash);
  ChecksumsFor(pid).Prefetch(vpn);
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().content_hash);

  // 1) Stable tree lookup (Figure 1-A).
  content_.ChargeTreeDescend(stable_.size());
  if (StableEntry* entry = StableLookup(frame, hash); entry != nullptr) {
    MergeInto(process, vpn, entry);
    return;
  }

  // 2) Unstable lookup (Figure 1-B). One descend charge covers both the lookup
  // and the insert below: KSM's unstable_tree_search_insert is a single rb-tree
  // walk that either finds a match or links the new node at the leaf the search
  // ended on, so charging the insert as a second full descent would
  // double-count the walk.
  content_.ChargeTreeDescend(UnstableSize());
  UnstableItem item;
  if (UnstableFindRemove(hash, frame, &item)) {
    const bool self = item.process == &process && item.vpn == vpn;
    if (!self && UnstableStillValid(item)) {
      StableEntry* entry = Stabilize(item);
      if (entry != nullptr) {
        MergeInto(process, vpn, entry);
        return;
      }
    }
    // Stale match: fall through and treat the scanned page as unmatched.
  }

  // 3) Checksum-gated unstable insert (Figure 1-C). The checksum KSM would
  // recompute here is the hash from above (same frame, same pass, same FNV
  // stream).
  const std::uint64_t checksum = hash;
  if (FaultInjector* injector = chaos();
      injector != nullptr && injector->ShouldFail(FaultSite::kStaleChecksum)) {
    // Forced-stale checksum: the page reads as volatile, deferring its
    // unstable-tree insertion to a later round (graceful skip, never corrupt).
    injector->RecordDegradation();
    ChecksumsFor(pid)[vpn] = ~checksum;
    return;
  }
  ChecksumMap& checksums = ChecksumsFor(pid);
  const std::uint64_t* stored = checksums.find(vpn);
  if (stored == nullptr || *stored != checksum) {
    checksums.insert_or_assign(vpn, checksum);
    return;
  }
  UnstableInsert(UnstableItem{frame, &process, vpn, hash});
}

bool Ksm::UnstableChainRemove(FpSlot* fp, FrameId frame, UnstableItem* out) {
  // Deterministic choice within the equal-hash chain: a (sort_hash, frame)
  // keyed rb-tree orders equal-hash items by (frame, insertion order) and
  // returns the leftmost whose content still matches the probe, so pick the
  // content match with the smallest frame, earliest-inserted on ties. (An item
  // whose content mutated after insert keeps its insert-time hash and simply
  // fails the byte check.) Chains are per-hash, so they are almost always a
  // single node.
  std::uint32_t best = kNoNode;
  std::uint32_t best_prev = kNoNode;
  std::uint32_t prev = kNoNode;
  for (std::uint32_t idx = fp->head; idx != kNoNode;
       prev = idx, idx = unstable_pool_[idx].next) {
    const UnstableItem& u = unstable_pool_[idx].item;
    if (best != kNoNode && unstable_pool_[best].item.frame <= u.frame) {
      continue;
    }
    if (content_.HostOrder(frame, u.frame) == 0) {
      best = idx;
      best_prev = prev;
    }
  }
  if (best == kNoNode) {
    return false;
  }
  UnstableNode& node = unstable_pool_[best];
  *out = node.item;
  if (best_prev == kNoNode) {
    fp->head = node.next;
  } else {
    unstable_pool_[best_prev].next = node.next;
  }
  if (fp->tail == best) {
    fp->tail = best_prev;
  }
  --fp->count;
  --unstable_live_;
  return true;
}

void Ksm::UnstableClear() {
  // The round-stamp IS the clear; old-stamped slots are dead weight kept for
  // reuse next round (the same unique pages re-claim the same slots). Under
  // content churn the key set drifts and dead slots accumulate; FpGrow — which
  // drops everything not stamped this round — runs from the insert path once
  // the table passes half-used, so no compaction is needed here. The node pool
  // is recycled wholesale, keeping its capacity.
  ++fps_round_;
  unstable_pool_.clear();
  unstable_live_ = 0;
}

// Rebuilds the table keeping only slots stamped this round (dead slots from
// earlier rounds are the only other occupants, and the conceptual multiset
// they encoded is gone), growing until the live set fits at <= 1/4 load.
void Ksm::FpGrow() {
  std::vector<FpSlot> old = std::move(fps_slots_);
  std::size_t live = 0;
  for (const FpSlot& s : old) {
    live += s.stamp == fps_round_;
  }
  std::size_t cap = old.empty() ? 1024 : old.size();
  while (live * 4 > cap) {
    cap *= 2;
  }
  fps_slots_.assign(cap, FpSlot{});
  fps_mask_ = cap - 1;
  fps_used_ = 0;
  fps_memo_idx_ = ~std::size_t{0};  // slots moved; the find memo is stale
  for (const FpSlot& s : old) {
    if (s.stamp != fps_round_) {
      continue;
    }
    std::size_t i = FpIndex(s.hash);
    while (fps_slots_[i].stamp != 0) {
      i = (i + 1) & fps_mask_;
    }
    fps_slots_[i] = s;
    ++fps_used_;
  }
}

Ksm::StableEntry* Ksm::StableIndexLookup(FrameId frame, std::uint64_t hash) {
  // Hash-index path. Exact, not heuristic: in uncorrupted operation the
  // stable tree's contents are unique (every Stabilize is preceded by a
  // stable-lookup miss on the same content in the same pass), so "the entry
  // whose content equals the probe" has at most one answer, and any such
  // entry's stabilize-time index_hash equals the probe hash (equal bytes =>
  // equal hash, and stable frames are write-protected). The first shared-frame
  // content mutation — rowhammer on a merged frame — breaks the
  // write-protection premise, so from then on the live-keyed tree descent
  // is used forever; it is the reference behavior for that regime.
  StableEntry* const* head = stable_index_.find(hash);
  for (StableEntry* e = head == nullptr ? nullptr : *head; e != nullptr;
       e = e->index_next) {
    if (content_.HostOrder(frame, e->frame) == 0) {
      return e;
    }
  }
  return nullptr;
}

Ksm::StableEntry* Ksm::StableTreeLookup(FrameId frame) {
  const StableTree::Node* node = stable_.Find(
      [&](StableEntry* const& e) { return content_.HostOrder(frame, e->frame); });
  return node == nullptr ? nullptr : node->value;
}

void Ksm::StableIndexInsert(StableEntry* entry) {
  StableEntry*& head = stable_index_[entry->index_hash];
  entry->index_next = head;
  head = entry;
  stable_filter_[StableFilterBucket(entry->index_hash)] = true;
}

void Ksm::StableIndexRemove(StableEntry* entry) {
  StableEntry** link = stable_index_.find(entry->index_hash);
  if (link == nullptr) {
    return;
  }
  while (*link != nullptr && *link != entry) {
    link = &(*link)->index_next;
  }
  if (*link == nullptr) {
    return;
  }
  *link = entry->index_next;
  if (StableEntry* const* head = stable_index_.find(entry->index_hash);
      head != nullptr && *head == nullptr) {
    stable_index_.erase(entry->index_hash);
  }
}

bool Ksm::ValidateUnstableChains() const {
  std::size_t live = 0;
  for (const FpSlot& s : fps_slots_) {
    if (s.stamp != fps_round_) {
      continue;
    }
    std::uint32_t count = 0;
    std::uint32_t idx = s.head;
    std::uint32_t last = kNoNode;
    while (idx != kNoNode) {
      if (idx >= unstable_pool_.size() ||
          unstable_pool_[idx].item.sort_hash != s.hash ||
          count > s.count) {
        return false;
      }
      ++count;
      last = idx;
      idx = unstable_pool_[idx].next;
    }
    if (count != s.count || last != s.tail) {
      return false;
    }
    live += count;
  }
  return live == unstable_live_;
}

bool Ksm::UnstableStillValid(const UnstableItem& item) const {
  const AddressSpace& as = item.process->address_space();
  const Pte* pte = as.GetPte(item.vpn);
  if (pte == nullptr || !pte->present() || pte->reserved_trap()) {
    return false;
  }
  FrameId frame = pte->frame;
  if (pte->huge()) {
    frame += static_cast<FrameId>(item.vpn & (kPagesPerHugePage - 1));
  }
  if (frame != item.frame) {
    return false;
  }
  const VmArea* vma = as.vmas().FindContaining(item.vpn);
  if (vma == nullptr || !vma->mergeable) {
    return false;
  }
  return !rmap_.contains(KeyOf(*item.process, item.vpn));
}

Pte* Ksm::EnsureSmallMapping(Process& process, Vpn vpn) {
  AddressSpace& as = process.address_space();
  Pte* pte = as.GetPte(vpn);
  if (pte != nullptr && pte->huge()) {
    // KSM breaks up a THP to merge a 4 KB page inside it (paper §5.1) - the very
    // translation-visible event the AnC attack detects.
    LatencyModel& lm = machine_->latency();
    lm.Charge(lm.config().huge_split);
    as.SplitHuge(vpn);
    machine_->trace().Emit(machine_->clock().now(), TraceEventType::kSplit, process.id(),
                           vpn & ~(kPagesPerHugePage - 1), 0);
    ++stats_.thp_splits;
    pte = as.GetPte(vpn);
  }
  return pte;
}

Ksm::StableEntry* Ksm::Stabilize(const UnstableItem& item) {
  // Injected merge abort before any state is touched: the caller falls through
  // to the unmatched-page path, nothing to roll back.
  if (FaultInjector* injector = chaos();
      injector != nullptr && injector->ShouldFail(FaultSite::kMergeAbort)) {
    injector->RecordDegradation();
    return nullptr;
  }
  Pte* pte = EnsureSmallMapping(*item.process, item.vpn);
  if (pte == nullptr || !pte->present()) {
    return nullptr;
  }
  auto* entry = arena_.New<StableEntry>(StableEntry{pte->frame, 1, nullptr});
  content_.ChargeTreeDescend(stable_.size());
  entry->node = stable_.Insert(entry);
  // The frame was hashed during this scan pass, so this re-read is memoized.
  entry->index_hash = machine_->memory().HashContent(entry->frame);
  StableIndexInsert(entry);
  const auto accessed = static_cast<std::uint16_t>(pte->flags & kPteAccessed);
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().pte_update);
  item.process->address_space().SetPte(item.vpn, Pte{entry->frame, MergedFlags(accessed)});
  machine_->memory().SetRefcount(entry->frame, 1);
  rmap_[KeyOf(*item.process, item.vpn)] = entry;
  return entry;
}

void Ksm::MergeInto(Process& process, Vpn vpn, StableEntry* entry) {
  if (FaultInjector* injector = chaos();
      injector != nullptr && injector->ShouldFail(FaultSite::kMergeAbort)) {
    injector->RecordDegradation();
    return;  // this page simply stays unmerged until a later round
  }
  Pte* pte = EnsureSmallMapping(process, vpn);
  if (pte == nullptr || !pte->present()) {
    return;
  }
  AddressSpace& as = process.address_space();
  const FrameId old = pte->frame;
  if (old == entry->frame) {
    return;  // already backed by the stable copy
  }
  const auto accessed = static_cast<std::uint16_t>(pte->flags & kPteAccessed);
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().pte_update);
  as.SetPte(vpn, Pte{entry->frame, MergedFlags(accessed)});
  ++entry->refs;
  ++frames_saved_;
  machine_->memory().SetRefcount(entry->frame, entry->refs);
  rmap_[KeyOf(process, vpn)] = entry;

  // The duplicate frame goes straight back to the system - this reuse of *one of
  // the sharing parties' frames* is what Flip Feng Shui abuses.
  machine_->FlushFrame(old);
  lm.Charge(lm.config().buddy_free);
  machine_->buddy().Free(old);

  ++stats_.merges;
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kMerge, process.id(), vpn,
                         entry->frame);
  stats_.LogAllocation(entry->frame);
  const VmArea* vma = as.vmas().FindContaining(vpn);
  if (vma != nullptr) {
    stats_.RecordMergeType(vma->type);
  }
  if (machine_->memory().IsZero(entry->frame)) {
    ++stats_.zero_page_merges;
  }
}

void Ksm::DropRef(StableEntry* entry) {
  if (entry->refs > 1) {
    --frames_saved_;
  }
  --entry->refs;
  if (entry->refs == 0) {
    stable_.Remove(entry->node);
    StableIndexRemove(entry);
    machine_->FlushFrame(entry->frame);
    LatencyModel& lm = machine_->latency();
    lm.Charge(lm.config().buddy_free);
    machine_->buddy().Free(entry->frame);
    arena_.Delete(entry);
  } else {
    machine_->memory().SetRefcount(entry->frame, entry->refs);
  }
}

bool Ksm::BreakCow(Process& process, Vpn vpn, StableEntry* entry,
                   std::uint16_t extra_flags) {
  AddressSpace& as = process.address_space();
  LatencyModel& lm = machine_->latency();
  // Copy-on-write unmerge (do_wp_page equivalent).
  lm.Charge(lm.config().buddy_alloc);
  const FrameId fresh = machine_->buddy().Allocate();
  if (fresh == kInvalidFrame) {
    return false;  // OOM
  }
  lm.Charge(lm.config().page_copy_4k);
  machine_->memory().CopyFrame(fresh, entry->frame);
  lm.Charge(lm.config().pte_update);
  as.SetPte(vpn, Pte{fresh, static_cast<std::uint16_t>(kPtePresent | kPteWritable |
                                                       kPteAccessed | extra_flags)});
  rmap_.erase(KeyOf(process, vpn));
  DropRef(entry);
  return true;
}

bool Ksm::HandleFault(Process& process, const PageFault& fault) {
  StableEntry* const* found = rmap_.find(KeyOf(process, fault.vpn));
  if (found == nullptr) {
    return false;
  }
  StableEntry* entry = *found;  // BreakCow erases the rmap slot under `found`
  const auto dirty = static_cast<std::uint16_t>(
      fault.access == AccessType::kWrite ? kPteDirty : 0);
  if (!BreakCow(process, fault.vpn, entry, dirty)) {
    // Allocation failed (transient or genuine OOM): the page stays merged and
    // the access path retries the fault. Returning false would hand this
    // engine-owned CoW PTE to the kernel's fork-CoW handler, which would
    // decrement the refcount behind the rmap's back.
    return true;
  }
  if (fault.access == AccessType::kWrite) {
    ++stats_.unmerges_cow;
  } else {
    ++stats_.unmerges_coa;
  }
  machine_->trace().Emit(machine_->clock().now(),
                         fault.access == AccessType::kWrite ? TraceEventType::kUnmergeCow
                                                            : TraceEventType::kUnmergeCoa,
                         process.id(), fault.vpn, 0);
  return true;
}

void Ksm::OnUnregister(Process& process, Vpn start, std::uint64_t pages) {
  // madvise(MADV_UNMERGEABLE): every merged page in the range gets a private copy
  // back (unmerge_ksm_pages equivalent).
  for (Vpn vpn = start; vpn < start + pages; ++vpn) {
    StableEntry* const* found = rmap_.find(KeyOf(process, vpn));
    if (found == nullptr) {
      continue;
    }
    if (BreakCow(process, vpn, *found, 0)) {
      ++stats_.unmerges_cow;
    }
    const auto proc_it = checksums_.find(process.id());
    if (proc_it != checksums_.end()) {
      proc_it->second.erase(vpn);
    }
  }
}

bool Ksm::OnUnmap(Process& process, Vpn vpn) {
  const std::uint64_t key = KeyOf(process, vpn);
  StableEntry* const* found = rmap_.find(key);
  if (found == nullptr) {
    return false;
  }
  StableEntry* entry = *found;
  rmap_.erase(key);
  DropRef(entry);
  return true;
}

void Ksm::OnProcessDestroy(Process& process) {
  // The unstable tree holds raw (process, vpn) references; it is rebuilt every
  // round anyway, so clearing it is the faithful equivalent of the kernel's
  // remove_node_from_tree on exit. Checksums of the dead process are dropped in
  // O(its pages) thanks to the per-process index.
  UnstableClear();
  checksum_memo_ = nullptr;
  checksums_.erase(process.id());
}

bool Ksm::AllowCollapse(Process& process, Vpn base) {
  // Linux khugepaged refuses to collapse ranges containing KSM pages.
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    if (rmap_.contains(KeyOf(process, vpn))) {
      return false;
    }
  }
  return true;
}

bool Ksm::IsMerged(const Process& process, Vpn vpn) const {
  return rmap_.contains(KeyOf(process, vpn));
}

void Ksm::AuditInvariants(AuditContext& ctx) const {
  const auto& processes = machine_->processes();
  PhysicalMemory& memory = machine_->memory();

  // Count the rmap's view of each stable entry while checking every mapping it
  // claims: the (pid, vpn) must be a live process whose PTE points at the
  // entry's frame with merged (read-only CoW) permissions.
  std::unordered_map<const StableEntry*, std::uint32_t> rmap_refs;
  rmap_.ForEach([&](std::uint64_t key, StableEntry* const& entry) {
    const auto pid = static_cast<std::uint32_t>(key >> 40);
    const Vpn vpn = key ^ (static_cast<std::uint64_t>(pid) << 40);
    ++rmap_refs[entry];
    if (!ctx.Check(pid < processes.size() && processes[pid] != nullptr, [&] {
          return "ksm: rmap entry for dead process " + std::to_string(pid);
        })) {
      return;
    }
    const Pte* pte = processes[pid]->address_space().GetPte(vpn);
    ctx.Check(pte != nullptr && pte->present() && pte->frame == entry->frame,
              [&] {
                return "ksm: rmap (" + std::to_string(pid) + "," +
                       std::to_string(vpn) + ") does not map stable frame " +
                       std::to_string(entry->frame);
              });
    ctx.Check(pte == nullptr || (!pte->writable() && pte->cow()), [&] {
      return "ksm: merged page (" + std::to_string(pid) + "," +
             std::to_string(vpn) + ") is not read-only CoW";
    });
  });

  std::size_t tree_entries = 0;
  stable_.InOrder([&](StableEntry* const& entry) {
    ++tree_entries;
    const std::string frame_str = std::to_string(entry->frame);
    ctx.Check(entry->refs >= 1, [&] {
      return "ksm: stable entry for frame " + frame_str + " has zero refs";
    });
    ctx.Check(memory.allocated(entry->frame), [&] {
      return "ksm: stable entry points at free frame " + frame_str;
    });
    ctx.Check(memory.refcount(entry->frame) == entry->refs, [&] {
      return "ksm: frame " + frame_str + " refcount " +
             std::to_string(memory.refcount(entry->frame)) + " != entry refs " +
             std::to_string(entry->refs);
    });
    ctx.Check(ctx.mapped(entry->frame) == entry->refs, [&] {
      return "ksm: frame " + frame_str + " mapped by " +
             std::to_string(ctx.mapped(entry->frame)) + " PTEs, entry refs " +
             std::to_string(entry->refs);
    });
    ctx.Check(ctx.writable(entry->frame) == 0, [&] {
      return "ksm: fused frame " + frame_str + " has a writable mapping";
    });
    const auto it = rmap_refs.find(entry);
    ctx.Check(it != rmap_refs.end() && it->second == entry->refs, [&] {
      return "ksm: frame " + frame_str + " rmap count " +
             std::to_string(it == rmap_refs.end() ? 0 : it->second) +
             " != entry refs " + std::to_string(entry->refs);
    });
    // Every tree entry must be reachable in the content index under its
    // stabilize-time hash (the index is maintained even after a corruption
    // switches lookups back to the tree).
    bool indexed = false;
    StableEntry* const* head = stable_index_.find(entry->index_hash);
    for (const StableEntry* e = head == nullptr ? nullptr : *head; e != nullptr;
         e = e->index_next) {
      indexed |= e == entry;
    }
    ctx.Check(indexed, [&] {
      return "ksm: stable entry for frame " + frame_str +
             " missing from the content index";
    });
  });
  ctx.Check(tree_entries == rmap_refs.size(), [&] {
    return "ksm: stable tree has " + std::to_string(tree_entries) +
           " entries but rmap references " + std::to_string(rmap_refs.size());
  });

  // The per-process checksum index must not reference dead processes.
  for (const auto& [pid, vpns] : checksums_) {
    (void)vpns;
    ctx.Check(pid < processes.size() && processes[pid] != nullptr, [&] {
      return "ksm: checksum index for dead process " + std::to_string(pid);
    });
  }
}

// --- Savestates (DESIGN.md §13) ---

namespace {

Process* KsmLiveProcess(Machine& machine, std::uint32_t pid) {
  const auto& processes = machine.processes();
  if (pid >= processes.size() || processes[pid] == nullptr) {
    throw snapshot::RestoreError("engine",
                                 "unstable item references dead process " + std::to_string(pid));
  }
  return processes[pid].get();
}

}  // namespace

void Ksm::SaveState(snapshot::SnapshotWriter& w) const {
  SaveCommon(w);
  const ScanCursor::State cur = cursor_.state();
  w.U64(cur.process_idx);
  w.U64(cur.vma_idx);
  w.U64(cur.page_idx);

  // Stable tree, structurally (preorder with colors): lookup results under
  // shared-frame content corruption depend on the node layout, so the restored
  // tree must be the recorded shape. Each entry's stabilize-time hash is its
  // key in the content index, which restore rebuilds from these hashes.
  std::unordered_map<const StableEntry*, std::uint32_t> index_of;
  w.U64(stable_.size());
  stable_.ExportPreorder([&](StableEntry* const& e, bool red, bool has_left,
                             bool has_right) {
    index_of.emplace(e, static_cast<std::uint32_t>(index_of.size()));
    w.U32(e->frame);
    w.U32(e->refs);
    w.U64(e->index_hash);
    w.Bool(red);
    w.Bool(has_left);
    w.Bool(has_right);
  });

  {
    std::vector<std::uint64_t> keys;
    keys.reserve(rmap_.size());
    rmap_.ForEach([&keys](std::uint64_t key, StableEntry* const&) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    w.U64(keys.size());
    for (const std::uint64_t key : keys) {
      w.U64(key);
      w.U32(index_of.at(*rmap_.find(key)));
    }
  }

  // Unstable items: this round's chains, each in insertion order (all a lookup
  // depends on), in ascending hash order so the bytes do not depend on the
  // slot layout. The slot table and the pool are host state; restore
  // re-inserts the items.
  std::vector<const FpSlot*> chains;
  for (const FpSlot& s : fps_slots_) {
    if (s.stamp == fps_round_) {
      chains.push_back(&s);
    }
  }
  std::sort(chains.begin(), chains.end(),
            [](const FpSlot* a, const FpSlot* b) { return a->hash < b->hash; });
  w.U64(unstable_live_);
  for (const FpSlot* s : chains) {
    for (std::uint32_t i = s->head; i != kNoNode; i = unstable_pool_[i].next) {
      const UnstableItem& item = unstable_pool_[i].item;
      w.U32(item.frame);
      w.U32(item.process->id());
      w.U64(item.vpn);
      w.U64(item.sort_hash);
    }
  }

  {
    std::vector<std::uint32_t> pids;
    pids.reserve(checksums_.size());
    for (const auto& [pid, map] : checksums_) {
      pids.push_back(pid);
    }
    std::sort(pids.begin(), pids.end());
    w.U64(pids.size());
    for (const std::uint32_t pid : pids) {
      const ChecksumMap& map = checksums_.at(pid);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
      rows.reserve(map.size());
      map.ForEach([&rows](std::uint64_t vpn, const std::uint64_t& checksum) {
        rows.emplace_back(vpn, checksum);
      });
      std::sort(rows.begin(), rows.end());
      w.U32(pid);
      w.U64(rows.size());
      for (const auto& [vpn, checksum] : rows) {
        w.U64(vpn);
        w.U64(checksum);
      }
    }
  }

  w.U64(frames_saved_);
}

void Ksm::RestoreState(snapshot::SnapshotReader& r) {
  RestoreCommon(r);
  ScanCursor::State cur;
  cur.process_idx = static_cast<std::size_t>(r.U64());
  cur.vma_idx = static_cast<std::size_t>(r.U64());
  cur.page_idx = r.U64();
  cursor_.RestoreState(cur);

  const std::uint64_t node_count = r.Count(19);
  std::vector<StableEntry*> entries;
  entries.reserve(node_count);
  const bool imported = stable_.ImportPreorder(
      static_cast<std::size_t>(node_count),
      [&](bool& red, bool& has_left, bool& has_right) -> StableEntry* {
        auto* e = arena_.New<StableEntry>(StableEntry{});
        e->frame = r.Frame(machine_->memory().frame_count());
        e->refs = r.U32();
        e->index_hash = r.U64();
        red = r.Bool();
        has_left = r.Bool();
        has_right = r.Bool();
        entries.push_back(e);
        return e;
      },
      [](StableTree::Node* node) { node->value->node = node; });
  if (!imported) {
    throw snapshot::RestoreError("engine", "malformed stable tree preorder");
  }
  // Indexed under the saved hash, not a fresh one: hashing here would move the
  // hash-memo counters, and a flipped frame's live hash is not its index key.
  for (StableEntry* e : entries) {
    StableIndexInsert(e);
  }

  const std::uint64_t rmap_count = r.Count(12);
  for (std::uint64_t i = 0; i < rmap_count; ++i) {
    const std::uint64_t key = r.U64();
    const std::uint32_t idx = r.U32();
    if (idx >= entries.size()) {
      throw snapshot::RestoreError("engine", "stable entry index out of range");
    }
    rmap_.insert_or_assign(key, entries[idx]);
  }

  const std::uint64_t unstable_count = r.Count(24);
  for (std::uint64_t i = 0; i < unstable_count; ++i) {
    UnstableItem item;
    item.frame = r.Frame(machine_->memory().frame_count());
    item.process = KsmLiveProcess(*machine_, r.U32());
    item.vpn = r.U64();
    item.sort_hash = r.U64();
    UnstableInsert(item);
  }

  const std::uint64_t checksum_pids = r.Count(12);
  for (std::uint64_t p = 0; p < checksum_pids; ++p) {
    const std::uint32_t pid = r.U32();
    ChecksumMap& map = checksums_[pid];
    const std::uint64_t rows = r.Count(16);
    for (std::uint64_t i = 0; i < rows; ++i) {
      const std::uint64_t vpn = r.U64();
      map.insert_or_assign(vpn, r.U64());
    }
  }

  frames_saved_ = r.U64();

  if (!ValidateTrees()) {
    throw snapshot::RestoreError("engine", "restored KSM trees fail validation");
  }
}

}  // namespace vusion
