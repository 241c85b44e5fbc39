#include "src/mmu/address_space.h"

#include <cassert>

namespace vusion {

AddressSpace::AddressSpace(std::uint32_t id, FrameAllocator& pt_allocator,
                           PhysicalMemory& memory)
    : id_(id), table_(pt_allocator, memory), tlb_(kDefaultTlbEntries) {}

void AddressSpace::MapPage(Vpn vpn, FrameId frame, std::uint16_t flags) {
  Pte* pte = table_.Resolve(vpn, /*create=*/true);
  *pte = Pte{frame, flags};
  tlb_.Invalidate(vpn);
}

void AddressSpace::UnmapPage(Vpn vpn) {
  Pte* pte = table_.Resolve(vpn, /*create=*/false);
  if (pte != nullptr) {
    *pte = Pte{};
  }
  tlb_.Invalidate(vpn);
}

void AddressSpace::SetPte(Vpn vpn, const Pte& pte) {
  Pte* slot = table_.Resolve(vpn, /*create=*/true);
  *slot = pte;
  tlb_.Invalidate(vpn);
}

bool AddressSpace::UpdateFlags(Vpn vpn, std::uint16_t set, std::uint16_t clear) {
  Pte* pte = table_.Resolve(vpn, /*create=*/false);
  if (pte == nullptr || pte->flags == 0) {
    return false;
  }
  pte->flags = static_cast<std::uint16_t>((pte->flags & ~clear) | set);
  tlb_.Invalidate(vpn);
  return true;
}

void AddressSpace::MapHugeRange(Vpn vpn_base, FrameId frame_base, std::uint16_t flags) {
  table_.MapHuge(vpn_base, frame_base, flags);
  tlb_.InvalidateRange(vpn_base, vpn_base + kPagesPerHugePage);
}

bool AddressSpace::SplitHuge(Vpn vpn) {
  const Vpn base = vpn & ~(kPagesPerHugePage - 1);
  const bool split = table_.SplitHuge(base);
  if (split) {
    tlb_.InvalidateRange(base, base + kPagesPerHugePage);
  }
  return split;
}

void AddressSpace::CollapseToHuge(Vpn vpn_base, FrameId frame_base, std::uint16_t flags) {
  assert(vpn_base % kPagesPerHugePage == 0);
  table_.MapHuge(vpn_base, frame_base, flags);
  tlb_.InvalidateRange(vpn_base, vpn_base + kPagesPerHugePage);
}

void AddressSpace::MadviseMergeable(Vpn start, std::uint64_t pages) {
  const Vpn end = start + pages;
  for (VmArea& vma : vmas_.mutable_areas()) {
    if (vma.start < end && start < vma.end()) {
      vma.mergeable = true;
    }
  }
}

void AddressSpace::MadviseUnmergeable(Vpn start, std::uint64_t pages) {
  const Vpn end = start + pages;
  for (VmArea& vma : vmas_.mutable_areas()) {
    if (vma.start < end && start < vma.end()) {
      vma.mergeable = false;
    }
  }
}

}  // namespace vusion
