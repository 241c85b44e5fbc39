#include "src/fusion/memory_combining.h"

#include <string>

#include "src/kernel/idle_tracker.h"

namespace vusion {

MemoryCombining::MemoryCombining(Machine& machine, const FusionConfig& config)
    : FusionEngine(machine, config),
      content_(machine),
      cursor_(machine) {}

MemoryCombining::~MemoryCombining() {
  for (const FrameId frame : cache_backing_) {
    machine_->buddy().Free(frame);
  }
}

std::uint64_t MemoryCombining::frames_saved() const {
  return frames_freed_ > cache_frames_ ? frames_freed_ - cache_frames_ : 0;
}

void MemoryCombining::Run() {
  if (SkipWake()) {
    return;
  }
  // Only act under memory pressure, like the real pager.
  if (machine_->buddy().free_count() < config_.mc_low_watermark) {
    SwapOutBatch();
  }
  next_run_ = machine_->clock().now() + config_.wake_period;
}

void MemoryCombining::SwapOutBatch() {
  std::size_t swapped = 0;
  std::size_t examined = 0;
  const std::size_t limit = config_.mc_swap_batch;
  // Bounded sweep: examine up to 16x the batch looking for idle pages.
  while (swapped < limit && examined < 16 * limit) {
    Process* process = nullptr;
    Vpn vpn = 0;
    bool wrapped = false;
    if (!cursor_.Next(process, vpn, wrapped)) {
      break;
    }
    ++examined;
    ++stats_.pages_scanned;
    if (SwapOutOne(*process, vpn)) {
      ++swapped;
    }
  }
}

bool MemoryCombining::SwapOutOne(Process& process, Vpn vpn) {
  AddressSpace& as = process.address_space();
  Pte* pte = as.GetPte(vpn);
  if (pte == nullptr || !pte->present() || pte->huge() || pte->reserved_trap()) {
    return false;
  }
  // Only idle pages get paged out.
  if (IdleTracker::TestAndClearAccessed(as, vpn)) {
    return false;
  }
  const std::uint64_t key = KeyOf(process, vpn);
  if (swapped_.contains(key)) {
    return false;
  }
  if (machine_->memory().refcount(pte->frame) > 0) {
    return false;  // fork-shared: the kernel owns this CoW state
  }
  const FrameId frame = pte->frame;
  LatencyModel& lm = machine_->latency();
  const std::uint64_t hash = content_.Hash(frame);

  // Deduplicate inside the compressed store.
  Record* record = nullptr;
  auto [lo, hi] = records_.equal_range(hash);
  PhysicalMemory::ContentSnapshot snapshot = machine_->memory().Snapshot(frame);
  for (auto it = lo; it != hi; ++it) {
    lm.Charge(lm.config().content_compare);
    if (PhysicalMemory::SnapshotsEqual(it->second->snapshot, snapshot)) {
      record = it->second.get();
      break;
    }
  }
  if (record == nullptr) {
    auto fresh = std::make_unique<Record>();
    fresh->snapshot = std::move(snapshot);
    record = fresh.get();
    records_.emplace(hash, std::move(fresh));
    // Modeled compression of the stored copy.
    compressed_bytes_ +=
        static_cast<std::uint64_t>(kPageSize / config_.mc_compression_ratio);
    ++stats_.fake_merges;  // a new compressed record
  } else {
    ++stats_.merges;  // deduplicated against an existing record
    const VmArea* vma = as.vmas().FindContaining(vpn);
    if (vma != nullptr) {
      stats_.RecordMergeType(vma->type);
    }
  }
  ++record->refs;
  swapped_[key] = record;

  // Page out: the PTE keeps only the swapped marker; the frame goes back.
  lm.Charge(lm.config().pte_update);
  as.SetPte(vpn, Pte{kInvalidFrame, kPteSwapped});
  machine_->FlushFrame(frame);
  lm.Charge(lm.config().buddy_free);
  machine_->buddy().Free(frame);
  ++frames_freed_;
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kSwapOut, process.id(),
                         vpn, frame);
  RebalanceCacheFrames();
  return true;
}

void MemoryCombining::RebalanceCacheFrames() {
  const std::size_t needed =
      static_cast<std::size_t>((compressed_bytes_ + kPageSize - 1) / kPageSize);
  while (cache_frames_ < needed) {
    const FrameId frame = machine_->buddy().Allocate();
    if (frame == kInvalidFrame) {
      break;  // degenerate: cannot even back the store; accounting still honest
    }
    ++cache_frames_;
    cache_backing_.push_back(frame);
  }
  while (cache_frames_ > needed && !cache_backing_.empty()) {
    machine_->buddy().Free(cache_backing_.back());
    cache_backing_.pop_back();
    --cache_frames_;
  }
}

bool MemoryCombining::SwapIn(Process& process, Vpn vpn, Record* record,
                             const PageFault& fault) {
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().buddy_alloc);
  const FrameId fresh = machine_->buddy().Allocate();
  if (fresh == kInvalidFrame) {
    return false;
  }
  // Decompression is modeled as a page copy plus extra CPU work.
  lm.Charge(lm.config().page_copy_4k);
  lm.Charge(lm.config().page_copy_4k);
  machine_->memory().Restore(fresh, record->snapshot);
  lm.Charge(lm.config().pte_update);
  process.address_space().SetPte(
      vpn, Pte{fresh, static_cast<std::uint16_t>(
                          kPtePresent | kPteWritable | kPteAccessed |
                          (fault.access == AccessType::kWrite ? kPteDirty : 0))});
  swapped_.erase(KeyOf(process, vpn));
  --frames_freed_;
  DropRecord(record);
  ++stats_.unmerges_cow;  // major fault servicing
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kUnmergeCow, process.id(),
                         vpn, fresh);
  return true;
}

void MemoryCombining::DropRecord(Record* record) {
  if (--record->refs > 0) {
    return;
  }
  const std::uint64_t hash = record->snapshot.hash;
  auto [lo, hi] = records_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.get() == record) {
      compressed_bytes_ -=
          static_cast<std::uint64_t>(kPageSize / config_.mc_compression_ratio);
      records_.erase(it);
      break;
    }
  }
  RebalanceCacheFrames();
}

bool MemoryCombining::HandleFault(Process& process, const PageFault& fault) {
  const auto it = swapped_.find(KeyOf(process, fault.vpn));
  if (it == swapped_.end()) {
    return false;
  }
  if (!SwapIn(process, fault.vpn, it->second, fault)) {
    // Transient OOM: claim the fault so the access retries. Falling through to
    // the kernel would demand-zero over the swapped marker and lose the page.
    return true;
  }
  return true;
}

bool MemoryCombining::OnUnmap(Process& process, Vpn vpn) {
  const auto it = swapped_.find(KeyOf(process, vpn));
  if (it == swapped_.end()) {
    return false;
  }
  Record* record = it->second;
  swapped_.erase(it);
  --frames_freed_;
  DropRecord(record);
  return true;
}

bool MemoryCombining::AllowCollapse(Process& process, Vpn base) {
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    if (swapped_.contains(KeyOf(process, vpn))) {
      return false;
    }
  }
  return true;
}

void MemoryCombining::OnUnregister(Process& process, Vpn start, std::uint64_t pages) {
  for (Vpn vpn = start; vpn < start + pages; ++vpn) {
    const auto it = swapped_.find(KeyOf(process, vpn));
    if (it == swapped_.end()) {
      continue;
    }
    const PageFault fault{vpn, AccessType::kRead, Pte{}};
    SwapIn(process, vpn, it->second, fault);
  }
}

bool MemoryCombining::IsSwapped(const Process& process, Vpn vpn) const {
  return swapped_.contains(KeyOf(process, vpn));
}

void MemoryCombining::AuditInvariants(AuditContext& ctx) const {
  const auto& processes = machine_->processes();
  PhysicalMemory& memory = machine_->memory();

  // Swap map: each swapped page belongs to a live process, sits behind the
  // swapped marker PTE, and references a live record.
  std::unordered_map<const Record*, std::uint32_t> swap_refs;
  for (const auto& [key, record] : swapped_) {
    ++swap_refs[record];
    const auto pid = static_cast<std::uint32_t>(key >> 40);
    const Vpn vpn = key ^ (static_cast<std::uint64_t>(pid) << 40);
    if (!ctx.Check(pid < processes.size() && processes[pid] != nullptr, [&] {
          return "mc: swap map holds page of dead process " +
                 std::to_string(pid);
        })) {
      continue;
    }
    const Pte* pte = processes[pid]->address_space().GetPte(vpn);
    ctx.Check(pte != nullptr && pte->flags == kPteSwapped &&
                  pte->frame == kInvalidFrame,
              [&] {
                return "mc: swapped page (" + std::to_string(pid) + "," +
                       std::to_string(vpn) +
                       ") is not behind the swapped marker PTE";
              });
  }

  // Record store: refcounts equal the swap map's references, hash keys match
  // the stored snapshots.
  std::size_t record_refs = 0;
  for (const auto& [hash, record] : records_) {
    record_refs += record->refs;
    ctx.Check(record->refs >= 1, [&] {
      return "mc: compressed record with zero refs survives in the store";
    });
    ctx.Check(record->snapshot.hash == hash, [&] {
      return "mc: record stored under hash " + std::to_string(hash) +
             " snapshots hash " + std::to_string(record->snapshot.hash);
    });
    const auto it = swap_refs.find(record.get());
    ctx.Check(it != swap_refs.end() && it->second == record->refs, [&] {
      return "mc: record refs " + std::to_string(record->refs) +
             " != " + std::to_string(it == swap_refs.end() ? 0 : it->second) +
             " swap-map references";
    });
  }
  ctx.Check(record_refs == swapped_.size(), [&] {
    return "mc: records claim " + std::to_string(record_refs) +
           " references but the swap map holds " +
           std::to_string(swapped_.size()) + " pages";
  });

  // Cache backing: really-reserved frames, unmapped and owned only here.
  ctx.Check(cache_frames_ == cache_backing_.size(), [&] {
    return "mc: cache_frames_ " + std::to_string(cache_frames_) +
           " != backing vector size " + std::to_string(cache_backing_.size());
  });
  for (const FrameId frame : cache_backing_) {
    ctx.OwnFrame(frame, "mc.cache");
    ctx.Check(memory.allocated(frame) && memory.refcount(frame) == 0 &&
                  ctx.mapped(frame) == 0,
              [&] {
                return "mc: cache backing frame " + std::to_string(frame) +
                       " is still live (mapped or refcounted)";
              });
  }
}

}  // namespace vusion
