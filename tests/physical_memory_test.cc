#include "src/phys/physical_memory.h"

#include <array>
#include <atomic>
#include <chrono>
#include <shared_mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/phys/content_isa.h"

namespace vusion {
namespace {

TEST(PhysicalMemoryTest, PatternFillIsDeterministic) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 42);
  mem.FillPattern(1, 42);
  EXPECT_EQ(mem.Compare(0, 1), 0);
  EXPECT_EQ(mem.HashContent(0), mem.HashContent(1));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(mem.ReadByte(0, i), mem.ReadByte(1, i));
    EXPECT_EQ(mem.ReadByte(0, i), PatternByte(42, i));
  }
}

TEST(PhysicalMemoryTest, DifferentSeedsDiffer) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 1);
  mem.FillPattern(1, 2);
  EXPECT_NE(mem.Compare(0, 1), 0);
  EXPECT_NE(mem.HashContent(0), mem.HashContent(1));
}

TEST(PhysicalMemoryTest, CompareIsConsistentAntisymmetric) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 10);
  mem.FillPattern(1, 20);
  EXPECT_EQ(mem.Compare(0, 1), -mem.Compare(1, 0));
  EXPECT_EQ(mem.Compare(0, 0), 0);
}

TEST(PhysicalMemoryTest, ZeroFrames) {
  PhysicalMemory mem(16);
  mem.FillZero(0);
  mem.FillZero(1);
  EXPECT_TRUE(mem.IsZero(0));
  EXPECT_EQ(mem.Compare(0, 1), 0);
  EXPECT_EQ(mem.ReadU64(0, 128), 0u);
  mem.FillPattern(2, 5);
  EXPECT_FALSE(mem.IsZero(2));
  EXPECT_NE(mem.Compare(0, 2), 0);
}

TEST(PhysicalMemoryTest, WriteMaterializesAndChangesHash) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 7);
  const std::uint64_t before = mem.HashContent(0);
  EXPECT_EQ(mem.materialized_bytes(), 0u);
  mem.WriteU64(0, 256, 0xdeadbeef);
  EXPECT_EQ(mem.materialized_bytes(), kPageSize);
  EXPECT_NE(mem.HashContent(0), before);
  EXPECT_EQ(mem.ReadU64(0, 256), 0xdeadbeefu);
  // Bytes outside the write still follow the pattern.
  EXPECT_EQ(mem.ReadByte(0, 0), PatternByte(7, 0));
}

TEST(PhysicalMemoryTest, MaterializedEqualsPatternComparesEqual) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 9);
  mem.FillPattern(1, 9);
  // Materialize frame 1 with an identity write.
  const std::uint64_t word = mem.ReadU64(1, 0);
  mem.WriteU64(1, 0, word);
  EXPECT_EQ(mem.Compare(0, 1), 0);
  EXPECT_EQ(mem.HashContent(0), mem.HashContent(1));
}

TEST(PhysicalMemoryTest, CopyFrame) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 11);
  mem.WriteU64(0, 8, 1234);
  mem.FillPattern(1, 99);
  mem.CopyFrame(1, 0);
  EXPECT_EQ(mem.Compare(0, 1), 0);
  EXPECT_EQ(mem.ReadU64(1, 8), 1234u);
  // Copy of a pattern frame stays cheap (no materialization).
  mem.FillPattern(2, 13);
  mem.CopyFrame(3, 2);
  EXPECT_EQ(mem.Compare(2, 3), 0);
}

TEST(PhysicalMemoryTest, FlipBit) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 21);
  const std::uint8_t before = mem.ReadByte(0, 100);
  mem.FlipBit(0, 100 * 8 + 3);
  EXPECT_EQ(mem.ReadByte(0, 100), before ^ 0x08);
  mem.FlipBit(0, 100 * 8 + 3);
  EXPECT_EQ(mem.ReadByte(0, 100), before);
}

TEST(PhysicalMemoryTest, HashCacheInvalidation) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 31);
  const std::uint64_t h1 = mem.HashContent(0);
  EXPECT_EQ(mem.HashContent(0), h1);  // cached
  mem.FlipBit(0, 5);
  const std::uint64_t h2 = mem.HashContent(0);
  EXPECT_NE(h2, h1);
  mem.FlipBit(0, 5);
  EXPECT_EQ(mem.HashContent(0), h1);  // back to original content
}

TEST(PhysicalMemoryTest, AllocationAccounting) {
  PhysicalMemory mem(8);
  EXPECT_EQ(mem.allocated_count(), 0u);
  mem.MarkAllocated(3);
  mem.MarkAllocated(5);
  EXPECT_EQ(mem.allocated_count(), 2u);
  EXPECT_TRUE(mem.allocated(3));
  mem.MarkFree(3);
  EXPECT_EQ(mem.allocated_count(), 1u);
  EXPECT_FALSE(mem.allocated(3));
}

TEST(PhysicalMemoryTest, Refcounting) {
  PhysicalMemory mem(8);
  mem.MarkAllocated(0);
  mem.SetRefcount(0, 2);
  EXPECT_EQ(mem.IncRef(0), 3u);
  EXPECT_EQ(mem.DecRef(0), 2u);
  EXPECT_EQ(mem.refcount(0), 2u);
}

TEST(PhysicalMemoryTest, ZeroVsPatternCompareOrdering) {
  PhysicalMemory mem(8);
  mem.FillZero(0);
  mem.FillPattern(1, 3);
  const int ab = mem.Compare(0, 1);
  EXPECT_NE(ab, 0);
  // Consistent with byte-wise comparison of the first differing byte.
  std::size_t i = 0;
  while (PatternByte(3, i) == 0) {
    ++i;
  }
  EXPECT_EQ(ab, PatternByte(3, i) > 0 ? -1 : 1);
}


// ReadU64 reads zero and pattern frames in closed form; at every offset,
// aligned or not, it must equal the little-endian assembly of eight ReadBytes.
TEST(PhysicalMemoryTest, ReadU64MatchesBytesAtEveryOffset) {
  PhysicalMemory mem(4);
  mem.FillZero(0);
  mem.FillPattern(1, 0x1234567);
  mem.FillPattern(2, 0x89abcdef);
  mem.WriteU64(2, 1000, 0x0102030405060708);  // materialized
  for (FrameId f = 0; f < 3; ++f) {
    for (std::size_t off = 0; off + 8 <= kPageSize; ++off) {
      std::uint64_t expected = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        expected |= static_cast<std::uint64_t>(mem.ReadByte(f, off + i)) << (8 * i);
      }
      ASSERT_EQ(mem.ReadU64(f, off), expected) << "frame " << f << " offset " << off;
    }
  }
  EXPECT_EQ(mem.materialized_bytes(), kPageSize);  // reads never materialize
}

TEST(PhysicalMemoryTest, SnapshotRestoreRoundTripsAllKinds) {
  PhysicalMemory mem(16);
  // Zero frame.
  mem.FillZero(0);
  // Pattern frame.
  mem.FillPattern(1, 77);
  // Materialized frame.
  mem.FillPattern(2, 78);
  mem.WriteU64(2, 96, 0x5a5a);
  for (FrameId f = 0; f < 3; ++f) {
    const PhysicalMemory::ContentSnapshot snapshot = mem.Snapshot(f);
    mem.FillPattern(8, 0xdead);  // scribble a scratch frame
    mem.Restore(8, snapshot);
    EXPECT_EQ(mem.Compare(f, 8), 0) << "kind " << f;
    EXPECT_EQ(mem.HashContent(f), mem.HashContent(8));
  }
}

TEST(PhysicalMemoryTest, SnapshotsEqualSemantics) {
  PhysicalMemory mem(16);
  mem.FillPattern(0, 5);
  mem.FillPattern(1, 5);
  mem.FillPattern(2, 6);
  // Materialized copy of the same content.
  mem.FillPattern(3, 5);
  mem.WriteU64(3, 0, mem.ReadU64(3, 0));  // identity write materializes
  const auto s0 = mem.Snapshot(0);
  const auto s1 = mem.Snapshot(1);
  const auto s2 = mem.Snapshot(2);
  const auto s3 = mem.Snapshot(3);
  EXPECT_TRUE(PhysicalMemory::SnapshotsEqual(s0, s1));
  EXPECT_FALSE(PhysicalMemory::SnapshotsEqual(s0, s2));
  EXPECT_TRUE(PhysicalMemory::SnapshotsEqual(s0, s3));  // pattern vs materialized
  mem.FillZero(4);
  mem.FillZero(5);
  EXPECT_TRUE(PhysicalMemory::SnapshotsEqual(mem.Snapshot(4), mem.Snapshot(5)));
  EXPECT_FALSE(PhysicalMemory::SnapshotsEqual(mem.Snapshot(4), s0));
}

// Every mutating operation must bump the frame's content generation; the memoized
// hash is keyed on the generation, so a missed bump would serve a stale hash and
// silently mis-order the fingerprint trees.
TEST(PhysicalMemoryTest, ContentGenerationBumpsOnEveryMutatingOp) {
  PhysicalMemory mem(16);
  const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const PhysicalMemory::ContentSnapshot snapshot = [&] {
    PhysicalMemory scratch(1);
    scratch.FillPattern(0, 99);
    return scratch.Snapshot(0);
  }();
  mem.FillPattern(1, 7);  // CopyFrame source

  struct Op {
    const char* name;
    void (*run)(PhysicalMemory&, const std::uint8_t*,
                const PhysicalMemory::ContentSnapshot&);
  };
  const Op ops[] = {
      {"FillZero", [](PhysicalMemory& m, const std::uint8_t*,
                      const PhysicalMemory::ContentSnapshot&) { m.FillZero(0); }},
      {"FillPattern", [](PhysicalMemory& m, const std::uint8_t*,
                         const PhysicalMemory::ContentSnapshot&) { m.FillPattern(0, 5); }},
      {"WriteBytes",
       [](PhysicalMemory& m, const std::uint8_t* d,
          const PhysicalMemory::ContentSnapshot&) { m.WriteBytes(0, 16, {d, 8}); }},
      {"WriteU64", [](PhysicalMemory& m, const std::uint8_t*,
                      const PhysicalMemory::ContentSnapshot&) { m.WriteU64(0, 8, 0xabcd); }},
      {"FlipBit", [](PhysicalMemory& m, const std::uint8_t*,
                     const PhysicalMemory::ContentSnapshot&) { m.FlipBit(0, 12345); }},
      {"CopyFrame", [](PhysicalMemory& m, const std::uint8_t*,
                       const PhysicalMemory::ContentSnapshot&) { m.CopyFrame(0, 1); }},
      {"Restore",
       [](PhysicalMemory& m, const std::uint8_t*,
          const PhysicalMemory::ContentSnapshot& s) { m.Restore(0, s); }},
  };
  for (const Op& op : ops) {
    const std::uint64_t before = mem.content_generation(0);
    op.run(mem, data, snapshot);
    EXPECT_GT(mem.content_generation(0), before) << op.name;
  }
}

// The memoized hash must track content: recompute after mutation, not before.
TEST(PhysicalMemoryTest, HashMemoizationInvalidatedByWrites) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 1234);
  const std::uint64_t h0 = mem.HashContent(0);
  EXPECT_EQ(mem.HashContent(0), h0);  // memoized: stable without mutation
  mem.WriteU64(0, 0, ~mem.ReadU64(0, 0));
  const std::uint64_t h1 = mem.HashContent(0);
  EXPECT_NE(h1, h0);
  mem.WriteU64(0, 0, ~mem.ReadU64(0, 0));  // write the original value back
  EXPECT_EQ(mem.HashContent(0), h0);
}

// A single Rowhammer flip must change the content hash (FlipBit materializes and
// mutates in place; a stale memoized hash here would hide the corruption from
// every fingerprint-ordered tree).
TEST(PhysicalMemoryTest, FlipBitChangesHashContent) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 42);
  const std::uint64_t before = mem.HashContent(0);
  mem.FlipBit(0, 8 * 100 + 3);
  const std::uint64_t after = mem.HashContent(0);
  EXPECT_NE(after, before);
  mem.FlipBit(0, 8 * 100 + 3);  // flip back: content and hash return
  EXPECT_EQ(mem.HashContent(0), before);
}

// CopyFrame propagates the source's memoized hash to the destination.
TEST(PhysicalMemoryTest, CopyFramePropagatesHash) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 77);
  const std::uint64_t h = mem.HashContent(0);
  mem.CopyFrame(1, 0);
  EXPECT_EQ(mem.HashContent(1), h);
  EXPECT_EQ(mem.Compare(0, 1), 0);
}

// The seed-keyed pattern hash cache is bounded: filling it past the cap forces a
// clear (counted as an eviction), and repeated seeds count as hits.
TEST(PhysicalMemoryTest, PatternHashCacheIsBoundedAndCounted) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 1);
  (void)mem.HashContent(0);
  (void)mem.HashContent(0);  // memoized on the frame: no second cache probe
  mem.FillPattern(1, 1);
  (void)mem.HashContent(1);  // same seed, new frame: cache hit
  PhysicalMemory::PatternHashCacheStats stats = mem.pattern_hash_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);

  for (std::uint64_t seed = 100; seed < 100 + PhysicalMemory::kPatternHashCacheCap + 8;
       ++seed) {
    mem.FillPattern(2, seed);
    (void)mem.HashContent(2);
  }
  stats = mem.pattern_hash_cache_stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, PhysicalMemory::kPatternHashCacheCap);
}

// Regression test for the wholesale clear(): eviction is segmented (hot/cold
// rotation), so a seed touched between rotations stays resident instead of
// being dropped with the rest of the cache.
TEST(PhysicalMemoryTest, PatternHashCacheKeepsTouchedSeedsAcrossRotation) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 42);
  const std::uint64_t h42 = mem.HashContent(0);
  std::uint64_t next_seed = 1000;
  for (int round = 0; round < 3; ++round) {
    // Enough distinct seeds to rotate the segments at least once.
    for (std::uint64_t i = 0; i < PhysicalMemory::kPatternHashCacheCap / 2 + 8; ++i) {
      mem.FillPattern(1, next_seed++);
      (void)mem.HashContent(1);
    }
    const auto before = mem.pattern_hash_cache_stats();
    mem.FillPattern(2, 42);
    EXPECT_EQ(mem.HashContent(2), h42);
    const auto after = mem.pattern_hash_cache_stats();
    EXPECT_EQ(after.hits, before.hits + 1) << "seed 42 fell out in round " << round;
  }
  const auto stats = mem.pattern_hash_cache_stats();
  EXPECT_GE(stats.evictions, 3u);
  EXPECT_LE(stats.entries, PhysicalMemory::kPatternHashCacheCap);
}

// WriteU64 writes a materialized, unaliased frame inline and sends every other
// frame through WriteBytes. A write to a buffer CopyFrame aliased must still
// clone it: the source keeps its bytes, its generation and its hash memo.
TEST(PhysicalMemoryTest, WriteU64ToAliasedBufferClonesIt) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 77);
  mem.WriteU64(0, 64, 0x1111);  // materializes frame 0
  const std::uint64_t src_hash = mem.HashContent(0);
  mem.CopyFrame(1, 0);
  const std::uint64_t src_gen = mem.content_generation(0);
  const std::size_t materialized = mem.materialized_bytes();

  mem.WriteU64(1, 64, 0x2222);
  EXPECT_EQ(mem.ReadU64(1, 64), 0x2222u);
  EXPECT_EQ(mem.ReadU64(0, 64), 0x1111u);
  EXPECT_EQ(mem.content_generation(0), src_gen);
  EXPECT_TRUE(mem.frame(0).hash_cached());
  EXPECT_EQ(mem.HashContent(0), src_hash);
  EXPECT_NE(mem.frame(0).bytes, mem.frame(1).bytes);
  EXPECT_EQ(mem.materialized_bytes(), materialized);

  // The other direction: writing the source leaves the copy alone.
  mem.CopyFrame(2, 0);
  mem.WriteU64(0, 128, 0x3333);
  EXPECT_EQ(mem.ReadU64(2, 128), PatternWord(77, 16));
  EXPECT_EQ(mem.ReadU64(0, 128), 0x3333u);
  EXPECT_EQ(mem.HashContent(2), src_hash);
}

// Every WriteU64 path bumps the generation once and counts a mutation of a
// shared frame once: the inline write (materialized, unaliased), and the
// WriteBytes fallback for a pattern frame, an aliased buffer, and a write
// during a streaming scan.
TEST(PhysicalMemoryTest, WriteU64PathsMoveGenerationAndSharedMutationsAlike) {
  enum class Path { kInline, kPattern, kAliased, kStreaming };
  for (const Path path : {Path::kInline, Path::kPattern, Path::kAliased, Path::kStreaming}) {
    for (const std::uint32_t refcount : {0u, 2u}) {
      SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)) + " refcount " +
                   std::to_string(refcount));
      PhysicalMemory mem(4);
      mem.FillPattern(0, 5);
      if (path != Path::kPattern) {
        mem.WriteBytes(0, 0, std::array<std::uint8_t, 1>{9});
      }
      if (path == Path::kAliased) {
        mem.CopyFrame(1, 0);
      }
      mem.SetRefcount(0, refcount);
      (void)mem.HashContent(0);
      const std::uint64_t gen = mem.content_generation(0);
      const std::uint64_t shared = mem.shared_content_mutations();
      if (path == Path::kStreaming) {
        mem.BeginStreamingScan();
      }
      mem.WriteU64(0, 8, 0xfeed);
      mem.EndStreamingScan();
      EXPECT_EQ(mem.content_generation(0), gen + 1);
      EXPECT_EQ(mem.shared_content_mutations(), shared + (refcount > 0 ? 1 : 0));
      EXPECT_EQ(mem.ReadU64(0, 8), 0xfeedu);
      EXPECT_FALSE(mem.frame(0).hash_cached());
    }
  }
}

// While a streaming scan is live, hashing workers read frames under the scan
// gate held shared, so even a write that could go inline must take the gate.
TEST(PhysicalMemoryTest, WriteU64DuringStreamingScanTakesTheGate) {
  PhysicalMemory mem(4);
  mem.FillPattern(0, 5);
  mem.WriteU64(0, 0, 1);  // materialized and unaliased: the inline case
  mem.BeginStreamingScan();
  std::atomic<bool> written{false};
  std::thread writer;
  {
    const std::shared_lock worker(mem.scan_gate());
    writer = std::thread([&] {
      mem.WriteU64(0, 0, 2);
      written.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(written.load()) << "the write did not wait for the gate";
    EXPECT_EQ(mem.ReadU64(0, 0), 1u);
  }
  writer.join();
  mem.EndStreamingScan();
  EXPECT_TRUE(written.load());
  EXPECT_EQ(mem.ReadU64(0, 0), 2u);
}

}  // namespace
}  // namespace vusion
