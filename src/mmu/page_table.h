// Four-level x86-64-style page table.
//
// Each table node occupies a real simulated frame, and timed walks report the
// physical addresses of the entries they touch, so page-table lookups are visible in
// the LLC simulator. That is the property the AnC-style translation attack (§5.1
// "Translation changes") depends on: a 2 MB huge mapping resolves at the PMD level
// (3 touched levels), a split 4 KB mapping needs the extra PT level (4 touched).

#ifndef VUSION_SRC_MMU_PAGE_TABLE_H_
#define VUSION_SRC_MMU_PAGE_TABLE_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/cache/llc.h"
#include "src/mmu/pte.h"
#include "src/phys/frame_allocator.h"
#include "src/phys/physical_memory.h"

namespace vusion {

constexpr int kPageTableLevels = 4;
constexpr std::size_t kPtFanout = 512;
constexpr std::size_t kPteBytes = 8;

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class PageTable {
 public:
  // Table node frames come from `allocator` (normally the buddy allocator).
  PageTable(FrameAllocator& allocator, PhysicalMemory& memory);
  ~PageTable();

  // Savestates: serializes the node tree structurally (levels, node frames,
  // entries). Restore rebuilds nodes with the *recorded* frames, bypassing the
  // allocator entirely — the buddy free lists are restored wholesale by the
  // Machine, so returning the old nodes' frames would double-free them. The
  // resolve memo is host-only and dropped.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r);

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Resolves a VPN to its PTE slot. With create=true, intermediate tables are
  // allocated on demand. Returns nullptr if absent (create=false). If the VPN is
  // covered by a huge mapping, the PMD entry is returned.
  //
  // The non-const overload memoizes the last PMD-level and leaf nodes, so the
  // scanners' sequential walks touch one node instead of four — and a repeat
  // hit on the same 2 MB region (511 of 512 sequential vpns) is a single
  // inline indexed load. The const overload never touches the memo: the
  // streaming scan pipeline resolves through it.
  Pte* Resolve(Vpn vpn, bool create) {
    if ((vpn >> 9) == memo_region_ && memo_leaf_ != nullptr) {
      return &memo_leaf_->entries[IndexAt(vpn, 0)];
    }
    return ResolveSlow(vpn, create);
  }
  [[nodiscard]] const Pte* Resolve(Vpn vpn) const;

  // Physical addresses of the page-table entries a walk examined, top level
  // first: at most one per level, held in place so a TLB miss allocates nothing.
  class WalkEntries {
   public:
    void push_back(PhysAddr addr) { addrs_[size_++] = addr; }
    [[nodiscard]] std::size_t size() const { return size_; }
    PhysAddr operator[](std::size_t i) const { return addrs_[i]; }
    [[nodiscard]] const PhysAddr* begin() const { return addrs_.data(); }
    [[nodiscard]] const PhysAddr* end() const { return addrs_.data() + size_; }

   private:
    std::array<PhysAddr, kPageTableLevels> addrs_{};
    std::size_t size_ = 0;
  };

  struct WalkResult {
    Pte* pte = nullptr;
    WalkEntries touched;
  };

  // Like Resolve(create=false) but reports the PT entry addresses touched, for the
  // cache-timed walk in the memory hierarchy.
  WalkResult TimedWalk(Vpn vpn);

  // Maps 512 aligned pages as one huge PMD entry. vpn must be 512-aligned. Any
  // existing 4 KB mappings under the range are destroyed (their PT node is freed).
  void MapHuge(Vpn vpn, FrameId frame_base, std::uint16_t flags);

  // Splits a huge PMD entry into 512 PTEs mapping frame_base+i with the same flags
  // (minus kPteHuge). Returns false if the entry is not huge.
  bool SplitHuge(Vpn vpn);

  // True if vpn is covered by a huge mapping.
  [[nodiscard]] bool IsHuge(Vpn vpn) const;

  // Calls fn(vpn, pte) for every present or reserved-trapped leaf mapping in
  // [start, end). Huge entries are visited once with their base VPN.
  void ForEachEntry(Vpn start, Vpn end, const std::function<void(Vpn, Pte&)>& fn);

  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  // Appends the frames backing every table node (frame-accounting audits).
  void CollectNodeFrames(std::vector<FrameId>& out) const;

 private:
  struct Node {
    FrameId frame = kInvalidFrame;
    int level = 0;  // 3 = PGD ... 0 = PT
    std::vector<std::unique_ptr<Node>> children;  // non-leaf: fanout entries
    std::vector<Pte> entries;                     // leaf PTEs, or PMD huge entries
  };

  std::unique_ptr<Node> NewNode(int level);
  void FreeNode(Node* node);
  Pte* ResolveSlow(Vpn vpn, bool create);
  static std::size_t IndexAt(Vpn vpn, int level) {
    return (vpn >> (9 * level)) & (kPtFanout - 1);
  }
  [[nodiscard]] PhysAddr EntryAddr(const Node& node, std::size_t index) const {
    return static_cast<PhysAddr>(node.frame) * kPageSize + index * kPteBytes;
  }
  void ForEachRecursive(Node* node, Vpn base, Vpn start, Vpn end,
                        const std::function<void(Vpn, Pte&)>& fn);

  FrameAllocator* allocator_;
  PhysicalMemory* memory_;
  std::unique_ptr<Node> root_;
  std::size_t node_count_ = 0;
  // Last PMD and leaf nodes resolved by the non-const Resolve, keyed by
  // vpn >> 9 (the 2 MB region they cover). Dropped whenever any node is freed;
  // attaching new children never moves existing nodes, so creation needs no
  // invalidation. memo_leaf_ is set only when the region resolves through a
  // 4 KB leaf (never for a huge PMD entry), so a leaf hit can return the PTE
  // without re-checking the huge bit.
  Vpn memo_region_ = ~Vpn{0};
  Node* memo_pmd_ = nullptr;
  Node* memo_leaf_ = nullptr;
};

}  // namespace vusion

#endif  // VUSION_SRC_MMU_PAGE_TABLE_H_
