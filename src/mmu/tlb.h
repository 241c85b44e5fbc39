// Fully associative LRU TLB with PTE snapshots. Kernel-side PTE modifications must
// invalidate (AddressSpace does this), modeling TLB shootdown.
//
// Layout: entries live in a slot array that grows up to the capacity and is
// never shrunk; a doubly linked recency list threads the live slots by index
// (head = most recent), freed slots chain into a free list through `next`, and
// a FlatMap64 maps each cached vpn to its slot. A hit is one open-addressed
// probe plus a relink of two indices — no node allocation anywhere.

#ifndef VUSION_SRC_MMU_TLB_H_
#define VUSION_SRC_MMU_TLB_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/container/flat_map.h"
#include "src/mmu/pte.h"

namespace vusion {

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

// The vpn index's key mixer: one multiply (Fibonacci hashing), keeping the
// product's bits from 32 up. It costs less than SplitMix64's two multiplies on
// every probe. IdentityHash would be cheaper still, but it measured slower:
// multi-region guests cluster their vpns, and their probe runs collide.
struct TlbIndexHash {
  static std::uint64_t Mix(std::uint64_t k) { return (k * 0x9e3779b97f4a7c15ULL) >> 32; }
};

class Tlb {
 public:
  // Throws std::invalid_argument for a capacity of zero.
  explicit Tlb(std::size_t capacity);

  // Savestates: entries in LRU order, most recent first (recency is
  // deterministic state — it decides future evictions); slots and the vpn
  // index are rebuilt on restore.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r);

  std::optional<Pte> Lookup(Vpn vpn) {
    const std::uint32_t* slot = index_.find(vpn);
    if (slot == nullptr) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    const std::uint32_t s = *slot;
    MoveToFront(s);
    return slots_[s].pte;
  }
  void Insert(Vpn vpn, const Pte& pte);
  void Invalidate(Vpn vpn);
  void InvalidateRange(Vpn start, Vpn end);
  void Flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return index_.size(); }

  // Visits every cached translation, most recent first (no LRU side effects);
  // audit use only.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
      fn(slots_[s].vpn, slots_[s].pte);
    }
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Slot {
    Vpn vpn = 0;
    Pte pte;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void Unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    (slot.prev == kNil ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNil ? tail_ : slots_[slot.next].prev) = slot.prev;
  }
  void PushFront(std::uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }
  void MoveToFront(std::uint32_t s) {
    if (s != head_) {
      Unlink(s);
      PushFront(s);
    }
  }
  // Unlinks slot s from the recency list, drops its vpn from the index and
  // pushes the slot onto the free list.
  void Remove(std::uint32_t s);

  std::size_t capacity_;
  std::vector<Slot> slots_;
  FlatMap64<std::uint32_t, TlbIndexHash> index_;  // vpn -> slot
  std::uint32_t head_ = kNil;                      // most recently used
  std::uint32_t tail_ = kNil;                      // least recently used
  std::uint32_t free_ = kNil;                      // first reusable slot
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_MMU_TLB_H_
