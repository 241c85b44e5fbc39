#include "src/phys/buddy_allocator.h"

#include <algorithm>
#include <cassert>

#include "src/chaos/fault_injector.h"

namespace vusion {

BuddyAllocator::BuddyAllocator(PhysicalMemory& memory)
    : memory_(&memory),
      free_lists_(kMaxBuddyOrder + 1),
      head_order_(memory.frame_count(), kNotFreeHead) {
  // Seed the free lists with maximal aligned blocks covering the frame range.
  FrameId start = 0;
  const FrameId total = memory.frame_count();
  while (start < total) {
    std::size_t order = kMaxBuddyOrder;
    while (order > 0 &&
           ((start & ((FrameId{1} << order) - 1)) != 0 || start + (FrameId{1} << order) > total)) {
      --order;
    }
    PushBlock(start, order);
    free_frames_ += std::size_t{1} << order;
    start += FrameId{1} << order;
  }
}

void BuddyAllocator::PushBlock(FrameId start, std::size_t order) {
  free_lists_[order].push_back(start);
  head_order_[start] = static_cast<std::uint8_t>(order);
}

void BuddyAllocator::RemoveBlock(FrameId start, std::size_t order) {
  auto& list = free_lists_[order];
  auto it = std::find(list.begin(), list.end(), start);
  assert(it != list.end());
  // Swap-remove keeps Free->Allocate reuse LIFO for the common tail case.
  *it = list.back();
  list.pop_back();
  head_order_[start] = kNotFreeHead;
}

void BuddyAllocator::MarkRangeAllocated(FrameId start, std::size_t order) {
  for (FrameId f = start; f < start + (FrameId{1} << order); ++f) {
    memory_->MarkAllocated(f);
  }
}

void BuddyAllocator::MarkRangeFree(FrameId start, std::size_t order) {
  for (FrameId f = start; f < start + (FrameId{1} << order); ++f) {
    memory_->MarkFree(f);
  }
}

FrameId BuddyAllocator::AllocateOrder(std::size_t order) {
  assert(order <= kMaxBuddyOrder);
  // Injected transient failure: fail before touching any free list so the
  // allocator state is exactly as if the call never happened. Because a real
  // order-0 failure implies free_frames_ == 0, callers can tell an injected
  // failure apart by seeing free_count() > 0 and treat it as retryable.
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kBuddyAlloc)) {
    ++failed_alloc_count_;
    return kInvalidFrame;
  }
  std::size_t have = order;
  while (have <= kMaxBuddyOrder && free_lists_[have].empty()) {
    ++have;
  }
  if (have > kMaxBuddyOrder) {
    ++failed_alloc_count_;
    return kInvalidFrame;
  }
  FrameId block = free_lists_[have].back();
  free_lists_[have].pop_back();
  head_order_[block] = kNotFreeHead;
  // Split down to the requested order, freeing the upper halves.
  while (have > order) {
    --have;
    const FrameId upper = block + (FrameId{1} << have);
    PushBlock(upper, have);
    ++split_count_;
  }
  ++alloc_count_;
  free_frames_ -= std::size_t{1} << order;
  MarkRangeAllocated(block, order);
  return block;
}

void BuddyAllocator::FreeOrder(FrameId start, std::size_t order) {
  assert(order <= kMaxBuddyOrder);
  MarkRangeFree(start, order);
  free_frames_ += std::size_t{1} << order;
  ++free_op_count_;
  // Coalesce with the buddy while it is free and of the same order.
  while (order < kMaxBuddyOrder) {
    const FrameId buddy = start ^ (FrameId{1} << order);
    if (buddy >= head_order_.size() || head_order_[buddy] != order) {
      // Also handle the case where we are the high half: buddy must be block head.
      break;
    }
    RemoveBlock(buddy, order);
    start = std::min(start, buddy);
    ++order;
    ++coalesce_count_;
  }
  PushBlock(start, order);
}

FrameId BuddyAllocator::Allocate() { return AllocateOrder(0); }

void BuddyAllocator::Free(FrameId frame) { FreeOrder(frame, 0); }

std::uint8_t BuddyAllocator::FindContainingBlock(FrameId frame, FrameId& start) const {
  for (std::size_t order = 0; order <= kMaxBuddyOrder; ++order) {
    const FrameId head = frame & ~((FrameId{1} << order) - 1);
    if (head_order_[head] == order) {
      start = head;
      return static_cast<std::uint8_t>(order);
    }
  }
  return kNotFreeHead;
}

bool BuddyAllocator::IsFree(FrameId frame) const {
  FrameId start = 0;
  return FindContainingBlock(frame, start) != kNotFreeHead;
}

bool BuddyAllocator::AllocateSpecific(FrameId frame) {
  FrameId start = 0;
  const std::uint8_t order = FindContainingBlock(frame, start);
  if (order == kNotFreeHead) {
    return false;
  }
  RemoveBlock(start, order);
  // Split the block repeatedly, keeping the half containing `frame` and freeing the
  // other half, until the block is the single target frame.
  std::size_t o = order;
  while (o > 0) {
    --o;
    const FrameId low = start;
    const FrameId high = start + (FrameId{1} << o);
    if (frame >= high) {
      PushBlock(low, o);
      start = high;
    } else {
      PushBlock(high, o);
      start = low;
    }
    ++split_count_;
  }
  ++alloc_count_;
  --free_frames_;
  memory_->MarkAllocated(frame);
  return true;
}

bool BuddyAllocator::ValidateInvariants() const {
  std::size_t counted = 0;
  for (std::size_t order = 0; order <= kMaxBuddyOrder; ++order) {
    for (FrameId head : free_lists_[order]) {
      if (head_order_[head] != order) {
        return false;
      }
      if ((head & ((FrameId{1} << order) - 1)) != 0) {
        return false;  // misaligned block
      }
      for (FrameId f = head; f < head + (FrameId{1} << order); ++f) {
        if (memory_->allocated(f)) {
          return false;  // free block overlapping allocated frame
        }
      }
      counted += std::size_t{1} << order;
    }
  }
  return counted == free_frames_;
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void BuddyAllocator::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(free_lists_.size());
  for (const std::vector<FrameId>& list : free_lists_) {
    w.U64(list.size());
    for (const FrameId f : list) {
      w.U32(f);
    }
  }
  w.U64(head_order_.size());
  w.Bytes(head_order_.data(), head_order_.size());
  w.U64(free_frames_);
  w.U64(alloc_count_);
  w.U64(free_op_count_);
  w.U64(split_count_);
  w.U64(coalesce_count_);
  w.U64(failed_alloc_count_);
}

void BuddyAllocator::RestoreState(snapshot::SnapshotReader& r) {
  const std::uint64_t orders = r.Count(8);
  if (orders != free_lists_.size()) {
    throw snapshot::RestoreError("phys.buddy", "order count mismatch");
  }
  for (std::vector<FrameId>& list : free_lists_) {
    list.clear();
    const std::uint64_t n = r.Count(4);
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      list.push_back(r.Frame(memory_->frame_count()));
    }
  }
  const std::uint64_t frames = r.U64();
  if (frames != head_order_.size()) {
    throw snapshot::RestoreError("phys.buddy", "frame count mismatch");
  }
  r.Bytes(head_order_.data(), head_order_.size());
  free_frames_ = r.U64();
  alloc_count_ = r.U64();
  free_op_count_ = r.U64();
  split_count_ = r.U64();
  coalesce_count_ = r.U64();
  failed_alloc_count_ = r.U64();
}

}  // namespace vusion
