// A chunked bump allocator with size-bucketed free lists, for the small
// fixed-size nodes the fusion engines churn through every scan pass (KSM's and
// VUsion's rbtree nodes and stable entries).
//
// Why not the global heap: a steady-state scan pass allocates and frees tens of
// thousands of ~64-byte nodes in tight loops; malloc's bookkeeping and the cache
// misses of a fragmented heap dominate the host cost of the structures
// themselves. The arena hands out nodes from large contiguous chunks (locality)
// and recycles freed blocks through exact-size free lists (O(1), no coalescing).
//
// Host-only: allocation order and addresses never feed the simulated clock or
// any simulated decision (the trees charge size-only descend costs; see
// DESIGN.md "Two clocks"). Not thread safe — all allocation happens on the
// serial simulation thread.

#ifndef VUSION_SRC_CONTAINER_ARENA_H_
#define VUSION_SRC_CONTAINER_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace vusion {

class Arena {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  // Freed blocks up to this size are recycled through per-size free lists;
  // larger blocks are simply dropped until the arena is destroyed. Bounded
  // waste in exchange for O(1) everything.
  static constexpr std::size_t kMaxBucketBytes = 512;
  static constexpr std::size_t kGranularity = alignof(std::max_align_t);

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* Allocate(std::size_t bytes) {
    bytes = RoundUp(bytes);
    if (bytes <= kMaxBucketBytes) {
      FreeBlock*& head = free_lists_[bytes / kGranularity];
      if (head != nullptr) {
        FreeBlock* block = head;
        head = block->next;
        return block;
      }
    }
    if (bytes > kChunkBytes) {
      // Oversized request: dedicated chunk, never recycled.
      chunks_.push_back(std::make_unique<std::byte[]>(bytes));
      total_bytes_ += bytes;
      return chunks_.back().get();
    }
    if (cursor_ + bytes > chunk_end_) {
      chunks_.push_back(std::make_unique<std::byte[]>(kChunkBytes));
      total_bytes_ += kChunkBytes;
      cursor_ = chunks_.back().get();
      chunk_end_ = cursor_ + kChunkBytes;
    }
    void* out = cursor_;
    cursor_ += bytes;
    return out;
  }

  void Deallocate(void* ptr, std::size_t bytes) {
    bytes = RoundUp(bytes);
    if (ptr == nullptr || bytes > kMaxBucketBytes) {
      return;  // oversized blocks are reclaimed when the arena dies
    }
    auto* block = static_cast<FreeBlock*>(ptr);
    FreeBlock*& head = free_lists_[bytes / kGranularity];
    block->next = head;
    head = block;
  }

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(alignof(T) <= kGranularity);
    return new (Allocate(sizeof(T))) T(std::forward<Args>(args)...);
  }

  template <typename T>
  void Delete(T* ptr) {
    if (ptr != nullptr) {
      ptr->~T();
      Deallocate(ptr, sizeof(T));
    }
  }

  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr std::size_t RoundUp(std::size_t bytes) {
    const std::size_t rounded = (bytes + kGranularity - 1) & ~(kGranularity - 1);
    return rounded < sizeof(FreeBlock) ? sizeof(FreeBlock) : rounded;
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::byte* chunk_end_ = nullptr;
  std::size_t total_bytes_ = 0;
  FreeBlock* free_lists_[kMaxBucketBytes / kGranularity + 1] = {};
};

}  // namespace vusion

#endif  // VUSION_SRC_CONTAINER_ARENA_H_
