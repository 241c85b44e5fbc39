// A process/VM address space: page table + TLB + VMA list, with a mutation API that
// keeps the TLB coherent (every PTE modification models a shootdown).

#ifndef VUSION_SRC_MMU_ADDRESS_SPACE_H_
#define VUSION_SRC_MMU_ADDRESS_SPACE_H_

#include <cstdint>

#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"
#include "src/mmu/vma.h"

namespace vusion {

constexpr std::size_t kDefaultTlbEntries = 1536;

class AddressSpace {
 public:
  AddressSpace(std::uint32_t id, FrameAllocator& pt_allocator, PhysicalMemory& memory);

  [[nodiscard]] std::uint32_t id() const { return id_; }

  // --- Mapping mutations (all invalidate the TLB entry/entries they touch) ---

  void MapPage(Vpn vpn, FrameId frame, std::uint16_t flags);
  void UnmapPage(Vpn vpn);
  void SetPte(Vpn vpn, const Pte& pte);

  // Sets and clears flag bits; returns false if no mapping exists.
  bool UpdateFlags(Vpn vpn, std::uint16_t set, std::uint16_t clear);

  void MapHugeRange(Vpn vpn_base, FrameId frame_base, std::uint16_t flags);
  bool SplitHuge(Vpn vpn);
  // Replaces 512 PTEs with one huge mapping backed by frame_base.
  void CollapseToHuge(Vpn vpn_base, FrameId frame_base, std::uint16_t flags);

  // --- Lookup ---

  Pte* GetPte(Vpn vpn) { return table_.Resolve(vpn, /*create=*/false); }
  [[nodiscard]] const Pte* GetPte(Vpn vpn) const { return table_.Resolve(vpn); }
  [[nodiscard]] bool IsHuge(Vpn vpn) const { return table_.IsHuge(vpn); }

  // --- VMAs ---

  void AddVma(const VmArea& vma) { vmas_.Add(vma); }
  // Marks all VMAs overlapping [start, start+pages) as KSM-mergeable.
  void MadviseMergeable(Vpn start, std::uint64_t pages);
  // Clears the mergeable mark (MADV_UNMERGEABLE); the caller notifies the engine.
  void MadviseUnmergeable(Vpn start, std::uint64_t pages);

  [[nodiscard]] VmaList& vmas() { return vmas_; }
  [[nodiscard]] const VmaList& vmas() const { return vmas_; }
  [[nodiscard]] PageTable& page_table() { return table_; }
  [[nodiscard]] Tlb& tlb() { return tlb_; }

 private:
  std::uint32_t id_;
  PageTable table_;
  Tlb tlb_;
  VmaList vmas_;
};

}  // namespace vusion

#endif  // VUSION_SRC_MMU_ADDRESS_SPACE_H_
