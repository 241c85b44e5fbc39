// Simulated physical memory: an array of frames with byte-accurate, lazily
// materialized contents, reference counting, and content comparison/hashing for the
// fusion engines.

#ifndef VUSION_SRC_PHYS_PHYSICAL_MEMORY_H_
#define VUSION_SRC_PHYS_PHYSICAL_MEMORY_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/phys/frame.h"

namespace vusion {

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class PhysicalMemory {
 public:
  explicit PhysicalMemory(FrameId frame_count);

  // Savestates (src/snapshot/): serializes every frame's canonical state
  // (allocation, refcount, content representation — kBytes buffers deduplicated
  // via CoW-alias backrefs, content generation and hash memo) plus the
  // allocation counters and the pattern-hash cache. The memo and the cache are
  // saved because their hit/miss counters are metrics-observable: a frame
  // restored without its memo would rehash where the uninterrupted run would
  // not, so both must survive a round trip.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r);

  [[nodiscard]] FrameId frame_count() const { return static_cast<FrameId>(frames_.size()); }
  [[nodiscard]] const Frame& frame(FrameId f) const { return frames_[f]; }
  [[nodiscard]] bool allocated(FrameId f) const { return frames_[f].allocated; }

  // Allocation state is owned by the frame allocators; they call these.
  void MarkAllocated(FrameId f);
  void MarkFree(FrameId f);
  [[nodiscard]] std::size_t allocated_count() const { return allocated_count_; }

  // Reference counting for shared (fused) frames.
  void SetRefcount(FrameId f, std::uint32_t count) { frames_[f].refcount = count; }
  [[nodiscard]] std::uint32_t refcount(FrameId f) const { return frames_[f].refcount; }
  std::uint32_t IncRef(FrameId f) { return ++frames_[f].refcount; }
  std::uint32_t DecRef(FrameId f);

  // --- Content operations ---

  // Resets the frame to all-zero content.
  void FillZero(FrameId f);

  // Fills the frame with the deterministic expansion of `seed`. Two frames filled
  // with the same seed are byte-identical; different seeds differ (with probability
  // 1 - 2^-64, deterministically resolved by byte comparison).
  void FillPattern(FrameId f, std::uint64_t seed);

  // Byte write; materializes pattern/zero frames.
  void WriteBytes(FrameId f, std::size_t offset, std::span<const std::uint8_t> data);
  // The timed access path's content write and read. Inline for the common
  // case, a materialized frame (and, for a write, a buffer no other frame
  // aliases while no streaming scan is live); every other case goes out of
  // line to WriteBytes or the closed-form zero/pattern read.
  void WriteU64(FrameId f, std::size_t offset, std::uint64_t value) {
    assert(offset + 8 <= kPageSize);
    Frame& fr = frames_[f];
    if (fr.kind == ContentKind::kBytes && !streaming_scan_ && fr.bytes.use_count() == 1) {
      std::memcpy(fr.bytes->data() + offset, &value, 8);
      ++fr.content_gen;
      NoteMutation(f);
      return;
    }
    WriteU64Slow(f, offset, value);
  }
  [[nodiscard]] std::uint64_t ReadU64(FrameId f, std::size_t offset) const {
    assert(offset + 8 <= kPageSize);
    const Frame& fr = frames_[f];
    if (fr.kind == ContentKind::kBytes) {
      std::uint64_t value;
      std::memcpy(&value, fr.bytes->data() + offset, 8);
      return value;
    }
    return ReadU64Closed(fr, offset);
  }
  [[nodiscard]] std::uint8_t ReadByte(FrameId f, std::size_t offset) const;

  // Copies src's full contents to dst (the copy-on-write/copy-on-access primitive).
  void CopyFrame(FrameId dst, FrameId src);

  // Flips one bit (Rowhammer corruption). bit_index in [0, kPageSize*8).
  void FlipBit(FrameId f, std::size_t bit_index);

  // Lexicographic three-way content comparison (memcmp semantics).
  [[nodiscard]] int Compare(FrameId a, FrameId b) const;

  // 64-bit content hash (the lane hash from content_isa.h; equal contents hash
  // equal, identical on every host).
  // Memoized per frame via the content generation counter: recomputed only after a
  // mutating operation, O(1) on every other call. The cached fast path is inline;
  // scanners call this once or twice per tree-descend step.
  [[nodiscard]] std::uint64_t HashContent(FrameId f) const {
    const Frame& fr = frames_[f];
    return fr.hash_cached() ? fr.cached_hash : HashContentSlow(f);
  }

  // Prefetches the frame's metadata line (refcount, content generation, hash
  // memo) ahead of a scan touch; the scan loop issues this one page early so
  // the dependent loads start resident.
  void PrefetchFrame(FrameId f) const { __builtin_prefetch(&frames_[f]); }

  // --- Lock-free snapshot accessors (host streaming scan) ---
  //
  // PeekHash is HashContent minus every side effect: it never writes the per-frame
  // memo, never touches the pattern-hash cache counters, and never inserts into the
  // cache, so any number of host worker threads may call it concurrently while
  // holding the streaming-scan gate shared (mutators take it exclusive). PrimeHash installs
  // a snapshot into the frame memo from the serial thread, and only if the frame's
  // content generation still matches — a stale snapshot is simply dropped, so a
  // primed memo is always exactly what HashContent would have computed itself.
  // Memo reads/writes that can cross threads go through std::atomic_ref, so the
  // serial thread may prime or hash one frame while workers peek another (or the
  // same) frame concurrently.

  struct HashSnapshot {
    std::uint64_t content_gen = 0;
    std::uint64_t hash = 0;
  };

  [[nodiscard]] HashSnapshot PeekHash(FrameId f) const;
  // Returns true when the snapshot's generation still matches the frame (the
  // speculative hash was fresh — installed into the memo, or already there);
  // false means the frame mutated since the snapshot and it was dropped. The
  // streaming pipeline counts the false returns as conflicts.
  bool PrimeHash(FrameId f, const HashSnapshot& snapshot);

  // --- Streaming-scan gate (decoupled pipeline; DESIGN.md §14) ---
  //
  // While a streaming scan is live, hashing workers run concurrently with the
  // serial merge instead of before it. Workers hold the gate shared around each
  // chunk; content mutators (and pattern-cache writes) take it exclusive, so a
  // worker always sees a frame's {content, content_gen} pair consistent even
  // mid-merge. Begin/End are called by the pipeline on the owning sim thread;
  // outside a streaming scan the `streaming_scan_` short-circuit keeps every
  // mutator lock-free.
  void BeginStreamingScan() { streaming_scan_ = true; }
  void EndStreamingScan() { streaming_scan_ = false; }
  [[nodiscard]] std::shared_mutex& scan_gate() const { return scan_mu_; }

  // Monotonic per-frame content version; bumped by every mutating operation
  // (WriteBytes/WriteU64/FlipBit/CopyFrame/FillZero/FillPattern/Restore). Lets
  // callers memoize any content-derived value with a single integer compare.
  [[nodiscard]] std::uint64_t content_generation(FrameId f) const {
    return frames_[f].content_gen;
  }

  // Machine-wide count of content mutations that hit a *shared* (refcount > 0)
  // frame — i.e. a fused stable copy changing underneath the engines (rowhammer
  // flips, direct corruption). Shared frames are write-protected, so this almost
  // never moves; KSM's stable lookup keeps its content-hash index only while it
  // is zero.
  [[nodiscard]] std::uint64_t shared_content_mutations() const {
    return shared_content_mutations_;
  }

  // Hit/miss accounting for the seed-keyed pattern hash cache (bounded; see
  // kPatternHashCacheCap).
  struct PatternHashCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    std::uint64_t evictions = 0;  // hot->cold segment rotations forced by the cap
  };
  [[nodiscard]] PatternHashCacheStats pattern_hash_cache_stats() const {
    return {pattern_hash_hits_, pattern_hash_misses_,
            pattern_hash_hot_.size() + pattern_hash_cold_.size(),
            pattern_hash_evictions_};
  }

  // Total size cap across both cache segments; VM images churn through seeds,
  // so an unbounded cache grows for the lifetime of the simulation.
  static constexpr std::size_t kPatternHashCacheCap = 8192;

  [[nodiscard]] bool IsZero(FrameId f) const;

  // Bytes of host memory actually committed to frame buffers (for scale reporting).
  [[nodiscard]] std::size_t materialized_bytes() const { return materialized_count_ * kPageSize; }
  // Host bytes of the frame metadata table itself (paid per Machine regardless
  // of how many frames hold materialized content).
  [[nodiscard]] std::size_t frame_table_bytes() const {
    return frames_.capacity() * sizeof(Frame);
  }

  // --- Content snapshots (swap/compressed-cache support) ---

  // A frame's contents detached from the frame, so the frame can be freed while the
  // data lives on (e.g. in a compressed in-memory swap cache).
  struct ContentSnapshot {
    ContentKind kind = ContentKind::kZero;
    std::uint64_t pattern_seed = 0;
    std::unique_ptr<PageBytes> bytes;
    std::uint64_t hash = 0;
  };

  [[nodiscard]] ContentSnapshot Snapshot(FrameId f) const;
  void Restore(FrameId f, const ContentSnapshot& snapshot);
  [[nodiscard]] static bool SnapshotsEqual(const ContentSnapshot& a, const ContentSnapshot& b);

 private:
  // RAII exclusive hold of the scan gate, no-op unless a streaming scan is
  // live. Every content mutator takes one; `streaming_scan_` only toggles on
  // the owning sim thread, so the ctor/dtor decision is race-free.
  class ScanGateLock {
   public:
    explicit ScanGateLock(const PhysicalMemory& pm)
        : mu_(pm.streaming_scan_ ? &pm.scan_mu_ : nullptr) {
      if (mu_ != nullptr) mu_->lock();
    }
    ~ScanGateLock() {
      if (mu_ != nullptr) mu_->unlock();
    }
    ScanGateLock(const ScanGateLock&) = delete;
    ScanGateLock& operator=(const ScanGateLock&) = delete;

   private:
    std::shared_mutex* mu_;
  };

  [[nodiscard]] std::uint64_t HashContentSlow(FrameId f) const;
  void WriteU64Slow(FrameId f, std::size_t offset, std::uint64_t value);
  // ReadU64 of a zero or pattern frame.
  [[nodiscard]] static std::uint64_t ReadU64Closed(const Frame& fr, std::size_t offset);
  void Materialize(FrameId f);
  // Clones the frame's buffer if it is CoW-aliased with another frame; every
  // mutator of materialized bytes must call this before writing.
  void Unshare(FrameId f);
  [[nodiscard]] std::uint8_t ByteAt(FrameId f, std::size_t offset) const;

  // Every mutator of frame contents must call this alongside the content_gen
  // bump so shared_content_mutations() stays complete.
  void NoteMutation(FrameId f) {
    if (frames_[f].refcount > 0) {
      ++shared_content_mutations_;
    }
  }

  // Two-segment (hot/cold) lookup for the pattern hash cache. `promote` moves a
  // cold hit into the hot segment and must be false on concurrent (PeekHash)
  // paths. Returns false if the seed is cached in neither segment.
  bool PatternHashLookup(std::uint64_t seed, bool promote, std::uint64_t* out) const;
  void PatternHashInsert(std::uint64_t seed, std::uint64_t hash) const;

  std::vector<Frame> frames_;
  std::size_t allocated_count_ = 0;
  std::size_t materialized_count_ = 0;
  std::uint64_t shared_content_mutations_ = 0;
  // Hash cache for pattern contents, keyed by seed (many frames share an image
  // seed). Segmented LRU-ish eviction: inserts and promoted hits go to the hot
  // segment; when the hot segment reaches half the cap it rotates into the cold
  // segment (dropping the previous cold half), so recently used seeds survive a
  // capacity event instead of the old wholesale clear().
  mutable std::unordered_map<std::uint64_t, std::uint64_t> pattern_hash_hot_;
  mutable std::unordered_map<std::uint64_t, std::uint64_t> pattern_hash_cold_;
  mutable std::uint64_t pattern_hash_hits_ = 0;
  mutable std::uint64_t pattern_hash_misses_ = 0;
  mutable std::uint64_t pattern_hash_evictions_ = 0;
  mutable std::shared_mutex scan_mu_;
  bool streaming_scan_ = false;
};

// Deterministic byte expansion of a pattern seed; exposed for tests.
std::uint8_t PatternByte(std::uint64_t seed, std::size_t offset);

}  // namespace vusion

#endif  // VUSION_SRC_PHYS_PHYSICAL_MEMORY_H_
