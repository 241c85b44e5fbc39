#include "src/mmu/tlb.h"

#include <stdexcept>

namespace vusion {

Tlb::Tlb(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0 || capacity >= kNil) {
    throw std::invalid_argument("Tlb: capacity must be in [1, 2^32 - 1)");
  }
}

void Tlb::Insert(Vpn vpn, const Pte& pte) {
  if (const std::uint32_t* found = index_.find(vpn)) {
    const std::uint32_t s = *found;
    slots_[s].pte = pte;
    MoveToFront(s);
    return;
  }
  if (index_.size() >= capacity_) {
    Remove(tail_);
  }
  std::uint32_t s = free_;
  if (s != kNil) {
    free_ = slots_[s].next;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].vpn = vpn;
  slots_[s].pte = pte;
  PushFront(s);
  index_.insert_or_assign(vpn, s);
}

void Tlb::Remove(std::uint32_t s) {
  Unlink(s);
  index_.erase(slots_[s].vpn);
  slots_[s].next = free_;
  free_ = s;
}

void Tlb::Invalidate(Vpn vpn) {
  if (const std::uint32_t* found = index_.find(vpn)) {
    Remove(*found);
  }
}

void Tlb::InvalidateRange(Vpn start, Vpn end) {
  for (std::uint32_t s = head_; s != kNil;) {
    const std::uint32_t next = slots_[s].next;
    if (slots_[s].vpn >= start && slots_[s].vpn < end) {
      Remove(s);
    }
    s = next;
  }
}

void Tlb::Flush() {
  slots_.clear();
  index_.clear();
  head_ = tail_ = free_ = kNil;
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void Tlb::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(size());
  ForEach([&w](Vpn vpn, const Pte& pte) {  // front (MRU) first
    w.U64(vpn);
    w.U32(pte.frame);
    w.U16(pte.flags);
  });
  w.U64(hits_);
  w.U64(misses_);
}

void Tlb::RestoreState(snapshot::SnapshotReader& r) {
  Flush();
  const std::uint64_t n = r.Count(14);
  if (n > capacity_) {
    throw snapshot::RestoreError("procs", "TLB holds more entries than its capacity");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot slot;
    slot.vpn = r.U64();
    slot.pte.frame = r.U32();
    slot.pte.flags = r.U16();
    if (index_.contains(slot.vpn)) {
      throw snapshot::RestoreError("procs", "duplicate TLB entry");
    }
    // Entries arrive most recent first, so each one links in at the tail.
    const auto s = static_cast<std::uint32_t>(slots_.size());
    slot.prev = tail_;
    (tail_ == kNil ? head_ : slots_[tail_].next) = s;
    tail_ = s;
    slots_.push_back(slot);
    index_.insert_or_assign(slot.vpn, s);
  }
  hits_ = r.U64();
  misses_ = r.U64();
}

}  // namespace vusion
