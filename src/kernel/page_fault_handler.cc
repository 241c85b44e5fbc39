// The timed memory-access path and page-fault dispatching: TLB lookup, cache-timed
// page walk, permission checks, LLC/DRAM data access (feeding the Rowhammer engine),
// and fault resolution through the sharing policy or the default handler.

#include <stdexcept>

#include "src/kernel/machine.h"
#include "src/kernel/process.h"

namespace vusion {

namespace {

constexpr int kMaxFaultRetries = 8;

bool NeedsWrite(AccessType type) { return type == AccessType::kWrite; }

}  // namespace

void Machine::ChargedDataAccess(const Pte& pte, PhysAddr paddr) {
  const LatencyConfig& lc = latency_->config();
  if (pte.cache_disabled()) {
    // Uncacheable: always goes to DRAM and never fills any cache.
    latency_->Charge(lc.uncached_access);
    rowhammer_->OnActivation(row_buffer_->Access(paddr));
    return;
  }
  if (l1_->Access(paddr)) {
    latency_->Charge(lc.l1_hit);
    return;
  }
  if (llc_->Access(paddr)) {
    latency_->Charge(lc.llc_hit);
    return;
  }
  const RowBuffer::AccessResult rb = row_buffer_->Access(paddr);
  latency_->Charge(rb.row_hit ? lc.dram_row_hit : lc.dram_row_miss);
  rowhammer_->OnActivation(rb);
}

Machine::AccessResult Machine::Access(Process& process, VirtAddr vaddr, AccessType type,
                                      std::uint64_t write_value) {
  const SimTime start = clock_.now();
  AddressSpace& as = process.address_space();
  const Vpn vpn = VaddrToVpn(vaddr);
  const LatencyConfig& lc = latency_->config();
  AccessResult result;

  for (int attempt = 0; attempt < kMaxFaultRetries; ++attempt) {
    latency_->Charge(lc.tlb_lookup);
    Pte pte;
    std::optional<Pte> cached = as.tlb().Lookup(vpn);
    if (cached.has_value()) {
      pte = *cached;
    } else {
      PageTable::WalkResult walk = as.page_table().TimedWalk(vpn);
      for (const PhysAddr entry_addr : walk.touched) {
        const bool hit = llc_->Access(entry_addr);
        latency_->Charge(hit ? lc.page_walk_step_cached : lc.page_walk_step_memory);
      }
      if (walk.pte == nullptr || !walk.pte->present() || walk.pte->reserved_trap()) {
        if (type == AccessType::kPrefetch) {
          result.latency = clock_.now() - start;
          return result;  // prefetch never faults
        }
        const PageFault fault{vpn, type, walk.pte != nullptr ? *walk.pte : Pte{}};
        HandleFault(process, fault);
        ++result.faults;
        continue;
      }
      // Hardware sets the accessed bit on TLB fill (this is what idle page
      // tracking harvests).
      walk.pte->flags |= kPteAccessed;
      pte = *walk.pte;
      as.tlb().Insert(vpn, pte);
    }

    if (NeedsWrite(type) && !pte.writable()) {
      as.tlb().Invalidate(vpn);
      const PageFault fault{vpn, type, pte};
      HandleFault(process, fault);
      ++result.faults;
      continue;
    }

    FrameId frame = pte.frame;
    if (pte.huge()) {
      frame += static_cast<FrameId>(vpn & (kPagesPerHugePage - 1));
    }
    const std::size_t offset = (vaddr & (kPageSize - 1)) & ~std::uint64_t{7};
    const PhysAddr paddr = static_cast<PhysAddr>(frame) * kPageSize + offset;

    if (type == AccessType::kPrefetch) {
      // Prefetch fills the caches unless the mapping is uncacheable; it is silent
      // otherwise. (The Gruss et al. attack VUsion's cache-disable bit stops.)
      if (!pte.cache_disabled()) {
        l1_->Access(paddr);
        llc_->Access(paddr);
      }
      latency_->Charge(lc.llc_hit);
      result.latency = clock_.now() - start;
      return result;
    }

    ChargedDataAccess(pte, paddr);

    if (NeedsWrite(type)) {
      memory_->WriteU64(frame, offset, write_value);
      // First write sets the dirty bit on the real PTE (no shootdown needed).
      Pte* real = as.GetPte(vpn);
      if (real != nullptr) {
        real->flags |= kPteDirty | kPteAccessed;
      }
    } else {
      result.value = memory_->ReadU64(frame, offset);
    }
    result.latency = clock_.now() - start;
    RunDueDaemons();
    return result;
  }
  throw std::runtime_error("unresolvable page fault (retry limit)");
}

void Machine::Prefetch(Process& process, VirtAddr vaddr) {
  Access(process, vaddr, AccessType::kPrefetch, 0);
}

void Machine::FlushCacheLine(Process& process, VirtAddr vaddr) {
  latency_->Charge(latency_->config().clflush);
  const Vpn vpn = VaddrToVpn(vaddr);
  const Pte* pte = process.address_space().GetPte(vpn);
  if (pte == nullptr || !pte->present() || pte->reserved_trap()) {
    return;
  }
  FrameId frame = pte->frame;
  if (pte->huge()) {
    frame += static_cast<FrameId>(vpn & (kPagesPerHugePage - 1));
  }
  const PhysAddr paddr =
      static_cast<PhysAddr>(frame) * kPageSize + (vaddr & (kPageSize - 1) & ~std::uint64_t{63});
  l1_->Flush(paddr);
  llc_->Flush(paddr);
}

void Machine::HandleFault(Process& process, const PageFault& fault) {
  const SimTime fault_start = clock_.now();
  latency_->Charge(latency_->config().fault_entry_exit);
  ++total_faults_;
  trace_.Emit(clock_.now(), TraceEventType::kFault, process.id(), fault.vpn,
              fault.pte.frame);
  // Injected spurious fault: the handler returns without resolving anything,
  // modeling the hardware-retry races real kernels tolerate (the access path
  // simply walks and faults again).
  if (chaos_ != nullptr && chaos_->ShouldFail(FaultSite::kSpuriousFault)) {
    fault_count_spurious_->Add();
    chaos_->RecordRetry();
    return;
  }
  Counter* count = nullptr;
  HistogramMetric* latency_hist = nullptr;
  if (policy_ != nullptr && policy_->HandleFault(process, fault)) {
    count = fault_count_policy_;
    latency_hist = fault_latency_policy_;
  } else {
    switch (HandleFaultDefault(process, fault)) {
      case DefaultFaultOutcome::kDemandZero:
        count = fault_count_demand_zero_;
        latency_hist = fault_latency_demand_zero_;
        break;
      case DefaultFaultOutcome::kCow:
        count = fault_count_cow_;
        latency_hist = fault_latency_cow_;
        break;
      case DefaultFaultOutcome::kTransient:
        // Allocation failed but free frames remain (injected OOM): leave the
        // fault unresolved and let the access path retry.
        fault_count_transient_->Add();
        if (chaos_ != nullptr) {
          chaos_->RecordRetry();
        }
        return;
      case DefaultFaultOutcome::kUnhandled:
        fault_count_unresolved_->Add();
        throw std::runtime_error("unhandled page fault");
    }
  }
  // Host-side observation of the simulated service time; the charged clock is
  // the source, so this records nothing the simulation didn't already decide.
  count->Add();
  latency_hist->Record(static_cast<double>(clock_.now() - fault_start));
}

Machine::DefaultFaultOutcome Machine::HandleFaultDefault(Process& process,
                                                         const PageFault& fault) {
  AddressSpace& as = process.address_space();
  Pte* pte = as.GetPte(fault.vpn);
  const LatencyConfig& lc = latency_->config();

  // Demand paging: unmapped page inside a known VMA gets a fresh zero frame.
  if (pte == nullptr || pte->flags == 0) {
    const VmArea* vma = as.vmas().FindContaining(fault.vpn);
    if (vma == nullptr) {
      return DefaultFaultOutcome::kUnhandled;  // segfault
    }
    const FrameId frame = buddy_->Allocate();
    if (frame == kInvalidFrame) {
      // Free frames remaining means the failure was injected, not genuine
      // exhaustion — retryable. (An order-0 buddy allocation can only fail for
      // real when free_count() == 0.)
      return buddy_->free_count() > 0 ? DefaultFaultOutcome::kTransient
                                      : DefaultFaultOutcome::kUnhandled;  // OOM
    }
    latency_->Charge(lc.buddy_alloc);
    memory_->FillZero(frame);
    latency_->Charge(lc.pte_update);
    as.MapPage(fault.vpn, frame,
               kPtePresent | kPteWritable | kPteAccessed |
                   (fault.access == AccessType::kWrite ? kPteDirty : 0));
    return DefaultFaultOutcome::kDemandZero;
  }

  // Kernel copy-on-write: a write to a fork-shared page (engine-managed CoW pages
  // were already claimed by the policy above).
  if (fault.access == AccessType::kWrite && pte->present() && !pte->writable() &&
      pte->cow()) {
    const FrameId shared = pte->frame;
    const std::uint32_t refs = memory_->refcount(shared);
    if (refs > 1) {
      latency_->Charge(lc.buddy_alloc);
      const FrameId fresh = buddy_->Allocate();
      if (fresh == kInvalidFrame) {
        return buddy_->free_count() > 0 ? DefaultFaultOutcome::kTransient
                                        : DefaultFaultOutcome::kUnhandled;
      }
      latency_->Charge(lc.page_copy_4k);
      memory_->CopyFrame(fresh, shared);
      latency_->Charge(lc.pte_update);
      as.SetPte(fault.vpn,
                Pte{fresh, kPtePresent | kPteWritable | kPteAccessed | kPteDirty});
      memory_->DecRef(shared);
    } else {
      // Last sharer: reclaim write access in place.
      if (refs == 1) {
        memory_->SetRefcount(shared, 0);
      }
      latency_->Charge(lc.pte_update);
      as.UpdateFlags(fault.vpn, kPteWritable | kPteAccessed | kPteDirty, kPteCow);
    }
    return DefaultFaultOutcome::kCow;
  }
  return DefaultFaultOutcome::kUnhandled;
}

}  // namespace vusion
