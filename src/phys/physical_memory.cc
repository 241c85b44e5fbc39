#include "src/phys/physical_memory.h"

#include <atomic>
#include <cassert>
#include <cstring>

#include "src/phys/content_isa.h"

namespace vusion {

namespace {

// Scratch pages for hashing/comparing non-materialized (zero/pattern) contents
// without allocating. Thread-local because phase-1 scan workers call PeekHash
// concurrently.
alignas(32) thread_local std::uint8_t g_scratch_a[kPageSize];
alignas(32) thread_local std::uint8_t g_scratch_b[kPageSize];

alignas(32) constexpr std::uint8_t kZeroPage[kPageSize] = {};

// Byte stream of a frame as a flat buffer: materialized frames expose their own
// bytes; zero/pattern frames borrow `scratch`.
const std::uint8_t* FrameBytes(const Frame& fr, std::uint8_t* scratch) {
  switch (fr.kind) {
    case ContentKind::kZero:
      return kZeroPage;
    case ContentKind::kPattern:
      ExpandPattern(fr.pattern_seed, scratch);
      return scratch;
    case ContentKind::kBytes:
      return fr.bytes->data();
  }
  return kZeroPage;
}

// Sole writer of the per-frame hash memo pair. Writes are confined to the
// serial sim thread, but streaming-scan workers read the memo concurrently, so
// the pair is published hash-first with a release store on the generation:
// a worker that acquire-reads hash_gen == content_gen is guaranteed to read
// the matching hash. gen == 0 invalidates (generation 0 is never current).
void StoreMemo(const Frame& fr, std::uint64_t hash, std::uint64_t gen) {
  std::atomic_ref<std::uint64_t>(fr.cached_hash).store(hash, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(fr.hash_gen).store(gen, std::memory_order_release);
}

}  // namespace

std::uint8_t PatternByte(std::uint64_t seed, std::size_t offset) {
  const std::uint64_t word = PatternWord(seed, offset / 8);
  return static_cast<std::uint8_t>(word >> (8 * (offset % 8)));
}

bool PhysicalMemory::PatternHashLookup(std::uint64_t seed, bool promote,
                                       std::uint64_t* out) const {
  const auto hot = pattern_hash_hot_.find(seed);
  if (hot != pattern_hash_hot_.end()) {
    *out = hot->second;
    return true;
  }
  const auto cold = pattern_hash_cold_.find(seed);
  if (cold != pattern_hash_cold_.end()) {
    *out = cold->second;
    if (promote) {
      PatternHashInsert(seed, *out);
    }
    return true;
  }
  return false;
}

void PhysicalMemory::PatternHashInsert(std::uint64_t seed, std::uint64_t hash) const {
  if (pattern_hash_hot_.size() >= kPatternHashCacheCap / 2) {
    // Segment rotation: the hot half becomes the cold half and the previous
    // cold half is dropped. Recently used seeds survive at least one rotation,
    // so mixed-pattern workloads no longer lose the whole cache at the cap.
    pattern_hash_cold_ = std::move(pattern_hash_hot_);
    pattern_hash_hot_.clear();
    ++pattern_hash_evictions_;
  }
  pattern_hash_hot_.insert_or_assign(seed, hash);
}

PhysicalMemory::PhysicalMemory(FrameId frame_count) : frames_(frame_count) {}

void PhysicalMemory::MarkAllocated(FrameId f) {
  assert(!frames_[f].allocated);
  frames_[f].allocated = true;
  ++allocated_count_;
}

void PhysicalMemory::MarkFree(FrameId f) {
  assert(frames_[f].allocated);
  frames_[f].allocated = false;
  frames_[f].refcount = 0;
  --allocated_count_;
}

std::uint32_t PhysicalMemory::DecRef(FrameId f) {
  assert(frames_[f].refcount > 0);
  return --frames_[f].refcount;
}

void PhysicalMemory::FillZero(FrameId f) {
  const ScanGateLock gate(*this);
  Frame& fr = frames_[f];
  if (fr.bytes != nullptr) {
    fr.bytes.reset();
    --materialized_count_;
  }
  fr.kind = ContentKind::kZero;
  fr.pattern_seed = 0;
  ++fr.content_gen;
  NoteMutation(f);
}

void PhysicalMemory::FillPattern(FrameId f, std::uint64_t seed) {
  const ScanGateLock gate(*this);
  Frame& fr = frames_[f];
  if (fr.bytes != nullptr) {
    fr.bytes.reset();
    --materialized_count_;
  }
  fr.kind = ContentKind::kPattern;
  fr.pattern_seed = seed;
  ++fr.content_gen;
  NoteMutation(f);
}

void PhysicalMemory::Unshare(FrameId f) {
  Frame& fr = frames_[f];
  if (fr.bytes.use_count() > 1) {
    fr.bytes = std::make_shared<PageBytes>(*fr.bytes);
  }
}

void PhysicalMemory::Materialize(FrameId f) {
  Frame& fr = frames_[f];
  if (fr.kind == ContentKind::kBytes) {
    return;
  }
  auto buf = std::make_shared<PageBytes>();
  if (fr.kind == ContentKind::kZero) {
    buf->fill(0);
  } else {
    ExpandPattern(fr.pattern_seed, buf->data());
  }
  fr.bytes = std::move(buf);
  fr.kind = ContentKind::kBytes;
  ++materialized_count_;
}

void PhysicalMemory::WriteBytes(FrameId f, std::size_t offset,
                                std::span<const std::uint8_t> data) {
  assert(offset + data.size() <= kPageSize);
  const ScanGateLock gate(*this);
  Materialize(f);
  Unshare(f);
  std::memcpy(frames_[f].bytes->data() + offset, data.data(), data.size());
  ++frames_[f].content_gen;
  NoteMutation(f);
}

void PhysicalMemory::WriteU64Slow(FrameId f, std::size_t offset, std::uint64_t value) {
  std::uint8_t raw[8];
  std::memcpy(raw, &value, 8);
  WriteBytes(f, offset, raw);
}

std::uint8_t PhysicalMemory::ByteAt(FrameId f, std::size_t offset) const {
  const Frame& fr = frames_[f];
  switch (fr.kind) {
    case ContentKind::kZero:
      return 0;
    case ContentKind::kPattern:
      return PatternByte(fr.pattern_seed, offset);
    case ContentKind::kBytes:
      return (*fr.bytes)[offset];
  }
  return 0;
}

std::uint64_t PhysicalMemory::ReadU64Closed(const Frame& fr, std::size_t offset) {
  if (fr.kind == ContentKind::kZero) {
    return 0;
  }
  // The pattern stream is little-endian words: an aligned read is one word, an
  // unaligned one splices the tail of word w onto the head of w+1.
  const std::size_t word = offset / 8;
  const unsigned shift = 8 * (offset % 8);
  const std::uint64_t low = PatternWord(fr.pattern_seed, word);
  if (shift == 0) {
    return low;
  }
  return (low >> shift) | (PatternWord(fr.pattern_seed, word + 1) << (64 - shift));
}

std::uint8_t PhysicalMemory::ReadByte(FrameId f, std::size_t offset) const {
  assert(offset < kPageSize);
  return ByteAt(f, offset);
}

void PhysicalMemory::CopyFrame(FrameId dst, FrameId src) {
  const ScanGateLock gate(*this);
  Frame& d = frames_[dst];
  const Frame& s = frames_[src];
  ++d.content_gen;
  NoteMutation(dst);
  // The copy inherits the source's cached hash (valid or not at the new generation).
  StoreMemo(d, s.cached_hash, s.hash_cached() ? d.content_gen : 0);
  if (s.kind == ContentKind::kBytes) {
    // Alias the buffer copy-on-write instead of copying 4 KB; a later write to
    // either frame clones it (Unshare).
    if (d.bytes == nullptr) {
      ++materialized_count_;
    }
    d.bytes = s.bytes;
    d.kind = ContentKind::kBytes;
    return;
  }
  if (d.bytes != nullptr) {
    d.bytes.reset();
    --materialized_count_;
  }
  d.kind = s.kind;
  d.pattern_seed = s.pattern_seed;
}

void PhysicalMemory::FlipBit(FrameId f, std::size_t bit_index) {
  assert(bit_index < kPageSize * 8);
  const ScanGateLock gate(*this);
  Materialize(f);
  Unshare(f);
  (*frames_[f].bytes)[bit_index / 8] ^= static_cast<std::uint8_t>(1U << (bit_index % 8));
  ++frames_[f].content_gen;
  NoteMutation(f);
}

int PhysicalMemory::Compare(FrameId a, FrameId b) const {
  if (a == b) {
    return 0;
  }
  const Frame& fa = frames_[a];
  const Frame& fb = frames_[b];
  // Fast paths that avoid byte generation.
  if (fa.kind == ContentKind::kZero && fb.kind == ContentKind::kZero) {
    return 0;
  }
  if (fa.kind == ContentKind::kPattern && fb.kind == ContentKind::kPattern &&
      fa.pattern_seed == fb.pattern_seed) {
    return 0;
  }
  if (fa.kind == ContentKind::kBytes && fb.kind == ContentKind::kBytes &&
      fa.bytes == fb.bytes) {
    return 0;  // CoW-aliased buffers are byte-identical by construction
  }
  // Mixed or materialized kinds: expand the non-materialized side(s) into
  // scratch and compare the byte streams.
  const std::uint8_t* pa = FrameBytes(fa, g_scratch_a);
  const std::uint8_t* pb = FrameBytes(fb, g_scratch_b);
  return ComparePages(pa, pb);
}

std::uint64_t PhysicalMemory::HashContentSlow(FrameId f) const {
  const Frame& fr = frames_[f];
  std::uint64_t h = 0;
  switch (fr.kind) {
    case ContentKind::kBytes:
      h = HashPage(fr.bytes->data());
      break;
    case ContentKind::kZero:
      h = ZeroPageHash();
      break;
    case ContentKind::kPattern: {
      // Promotion and insertion mutate the cache maps, which streaming-scan
      // workers probe concurrently (PeekHash); the gate excludes them.
      const ScanGateLock gate(*this);
      if (PatternHashLookup(fr.pattern_seed, /*promote=*/true, &h)) {
        ++pattern_hash_hits_;
      } else {
        ++pattern_hash_misses_;
        ExpandPattern(fr.pattern_seed, g_scratch_a);
        h = HashPage(g_scratch_a);
        PatternHashInsert(fr.pattern_seed, h);
      }
      break;
    }
  }
  StoreMemo(fr, h, fr.content_gen);
  return h;
}

PhysicalMemory::HashSnapshot PhysicalMemory::PeekHash(FrameId f) const {
  const Frame& fr = frames_[f];
  HashSnapshot snapshot{fr.content_gen, 0};
  // Acquire/release pairing with StoreMemo: a matching generation guarantees
  // the relaxed hash load below observes the hash published with it (and any
  // older value at this generation is the identical deterministic hash).
  if (std::atomic_ref<std::uint64_t>(fr.hash_gen).load(std::memory_order_acquire) ==
      snapshot.content_gen) {
    snapshot.hash =
        std::atomic_ref<std::uint64_t>(fr.cached_hash).load(std::memory_order_relaxed);
    return snapshot;
  }
  std::uint64_t h = 0;
  switch (fr.kind) {
    case ContentKind::kBytes:
      h = HashPage(fr.bytes->data());
      break;
    case ContentKind::kZero:
      h = ZeroPageHash();
      break;
    case ContentKind::kPattern:
      // Read-only probe of the pattern cache: concurrent finds are safe; on a miss
      // we recompute without inserting, promoting, or bumping the (unsynchronized)
      // counters.
      if (!PatternHashLookup(fr.pattern_seed, /*promote=*/false, &h)) {
        ExpandPattern(fr.pattern_seed, g_scratch_a);
        h = HashPage(g_scratch_a);
      }
      break;
  }
  snapshot.hash = h;
  return snapshot;
}

bool PhysicalMemory::PrimeHash(FrameId f, const HashSnapshot& snapshot) {
  const Frame& fr = frames_[f];
  if (fr.content_gen != snapshot.content_gen) {
    return false;
  }
  if (fr.hash_gen != fr.content_gen) {
    StoreMemo(fr, snapshot.hash, fr.content_gen);
  }
  return true;
}

PhysicalMemory::ContentSnapshot PhysicalMemory::Snapshot(FrameId f) const {
  const Frame& fr = frames_[f];
  ContentSnapshot snapshot;
  snapshot.kind = fr.kind;
  snapshot.pattern_seed = fr.pattern_seed;
  if (fr.kind == ContentKind::kBytes) {
    snapshot.bytes = std::make_unique<PageBytes>(*fr.bytes);
  }
  snapshot.hash = HashContent(f);
  return snapshot;
}

void PhysicalMemory::Restore(FrameId f, const ContentSnapshot& snapshot) {
  switch (snapshot.kind) {
    case ContentKind::kZero:
      FillZero(f);
      break;
    case ContentKind::kPattern:
      FillPattern(f, snapshot.pattern_seed);
      break;
    case ContentKind::kBytes:
      WriteBytes(f, 0, *snapshot.bytes);
      break;
  }
  StoreMemo(frames_[f], snapshot.hash, frames_[f].content_gen);
}

bool PhysicalMemory::SnapshotsEqual(const ContentSnapshot& a, const ContentSnapshot& b) {
  if (a.hash != b.hash) {
    return false;
  }
  if (a.kind != ContentKind::kBytes && a.kind == b.kind) {
    return a.kind == ContentKind::kZero || a.pattern_seed == b.pattern_seed;
  }
  // At least one side is materialized: compare byte streams.
  auto byte_at = [](const ContentSnapshot& s, std::size_t i) -> std::uint8_t {
    switch (s.kind) {
      case ContentKind::kZero:
        return 0;
      case ContentKind::kPattern:
        return PatternByte(s.pattern_seed, i);
      case ContentKind::kBytes:
        return (*s.bytes)[i];
    }
    return 0;
  };
  for (std::size_t i = 0; i < kPageSize; ++i) {
    if (byte_at(a, i) != byte_at(b, i)) {
      return false;
    }
  }
  return true;
}

bool PhysicalMemory::IsZero(FrameId f) const {
  const Frame& fr = frames_[f];
  if (fr.kind == ContentKind::kZero) {
    return true;
  }
  if (fr.kind == ContentKind::kBytes) {
    return IsZeroPage(fr.bytes->data());
  }
  // Pattern frames are non-zero with overwhelming probability; check one word
  // at a time without expanding the page.
  for (std::size_t w = 0; w < kPageSize / 8; ++w) {
    if (PatternWord(fr.pattern_seed, w) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace vusion

#include "src/snapshot/io.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vusion {

void PhysicalMemory::SaveState(snapshot::SnapshotWriter& w) const {
  w.U32(frame_count());
  // CoW-aliased buffers are serialized once; later frames sharing the buffer
  // write a backref to the first user, so restore re-establishes the aliasing
  // (and with it the materialized-byte accounting and Compare's pointer-equal
  // fast path).
  std::unordered_map<const PageBytes*, FrameId> first_use;
  for (FrameId f = 0; f < frame_count(); ++f) {
    const Frame& fr = frames_[f];
    w.Bool(fr.allocated);
    w.U32(fr.refcount);
    w.U8(static_cast<std::uint8_t>(fr.kind));
    w.U64(fr.pattern_seed);
    w.U64(fr.content_gen);
    // The hash memo is serialized because its validity is observable: a frame
    // restored without it would re-enter HashContentSlow and bump the pattern
    // cache hit/miss counters where the uninterrupted run would not.
    w.Bool(fr.hash_cached());
    w.U64(fr.hash_cached() ? fr.cached_hash : 0);
    if (fr.kind == ContentKind::kBytes) {
      const auto [it, inserted] = first_use.try_emplace(fr.bytes.get(), f);
      if (inserted) {
        w.U8(0);
        w.Bytes(fr.bytes->data(), kPageSize);
      } else {
        w.U8(1);
        w.U32(it->second);
      }
    }
  }
  w.U64(shared_content_mutations_);
  // Pattern-hash cache membership, sorted by seed so identical caches
  // serialize identically regardless of hash-map iteration order. The two
  // segments are kept distinct: rotation timing depends on the hot size.
  const auto write_segment = [&w](const std::unordered_map<std::uint64_t, std::uint64_t>& seg) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(seg.begin(), seg.end());
    std::sort(entries.begin(), entries.end());
    w.U64(entries.size());
    for (const auto& [seed, hash] : entries) {
      w.U64(seed);
      w.U64(hash);
    }
  };
  write_segment(pattern_hash_hot_);
  write_segment(pattern_hash_cold_);
  w.U64(pattern_hash_hits_);
  w.U64(pattern_hash_misses_);
  w.U64(pattern_hash_evictions_);
}

void PhysicalMemory::RestoreState(snapshot::SnapshotReader& r) {
  const FrameId count = r.U32();
  if (count != frame_count()) {
    throw snapshot::RestoreError(
        "phys.frames", "frame count mismatch (snapshot " + std::to_string(count) +
                           ", machine " + std::to_string(frame_count()) + ")");
  }
  allocated_count_ = 0;
  materialized_count_ = 0;
  for (FrameId f = 0; f < count; ++f) {
    Frame& fr = frames_[f];
    fr.bytes.reset();
    fr.allocated = r.Bool();
    fr.refcount = r.U32();
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(ContentKind::kBytes)) {
      throw snapshot::RestoreError("phys.frames", "bad content kind");
    }
    fr.kind = static_cast<ContentKind>(kind);
    fr.pattern_seed = r.U64();
    fr.content_gen = r.U64();
    const bool hash_valid = r.Bool();
    fr.cached_hash = r.U64();
    fr.hash_gen = hash_valid ? fr.content_gen : 0;
    if (fr.kind == ContentKind::kBytes) {
      const std::uint8_t tag = r.U8();
      if (tag == 0) {
        fr.bytes = std::make_shared<PageBytes>();
        r.Bytes(fr.bytes->data(), kPageSize);
      } else {
        const FrameId src = r.U32();
        if (src >= f || frames_[src].bytes == nullptr) {
          throw snapshot::RestoreError("phys.frames", "bad CoW backref");
        }
        fr.bytes = frames_[src].bytes;
      }
      ++materialized_count_;
    }
    allocated_count_ += fr.allocated ? 1 : 0;
  }
  shared_content_mutations_ = r.U64();
  const auto read_segment = [&r](std::unordered_map<std::uint64_t, std::uint64_t>& seg) {
    seg.clear();
    const std::uint64_t n = r.Count(16);
    seg.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t seed = r.U64();
      seg.emplace(seed, r.U64());
    }
  };
  read_segment(pattern_hash_hot_);
  read_segment(pattern_hash_cold_);
  pattern_hash_hits_ = r.U64();
  pattern_hash_misses_ = r.U64();
  pattern_hash_evictions_ = r.U64();
}

}  // namespace vusion
