#include "src/cache/llc.h"

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/cache/eviction_set.h"
#include "src/kernel/machine.h"
#include "src/sim/rng.h"
#include "src/snapshot/io.h"

namespace vusion {
namespace {

CacheConfig SmallCache() {
  CacheConfig config;
  config.sets = 256;
  config.ways = 4;
  return config;
}

// The array-of-structs cache the flat layout replaced, kept as the reference
// it must match bit for bit: one Line{tag, valid, lru} per way, indexed by
// division, and the victim is the last invalid way, or else the first way with
// the smallest stamp.
class ReferenceLlc {
 public:
  explicit ReferenceLlc(const CacheConfig& config) : config_(config) {}

  bool Access(PhysAddr paddr) {
    if (lines_.empty()) {
      lines_.assign(config_.sets * config_.ways, Line{});
    }
    const std::uint64_t tag = paddr / config_.line_size;
    Line* base = &lines_[(tag % config_.sets) * config_.ways];
    ++tick_;
    Line* victim = base;
    std::size_t empty = 0;
    for (std::size_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = tick_;
        ++hits_;
        return true;
      }
      if (!line.valid) {
        victim = &line;
        ++empty;
      } else if (victim->valid && line.lru < victim->lru) {
        victim = &line;
      }
    }
    lru_evictions_ += empty == 0 ? 1 : 0;
    choices_among_empty_ += empty > 1 ? 1 : 0;
    *victim = Line{tag, true, tick_};
    ++misses_;
    return false;
  }

  void Flush(PhysAddr paddr) {
    if (Line* line = Find(paddr)) {
      line->valid = false;
      ++line_flushes_;
    }
  }

  void FlushFrame(FrameId frame) {
    const PhysAddr start = static_cast<PhysAddr>(frame) * kPageSize;
    bool cached = false;
    for (std::size_t off = 0; off < kPageSize; off += config_.line_size) {
      cached = cached || Find(start + off) != nullptr;
    }
    if (!cached) {
      return;
    }
    ++frame_flushes_;
    for (std::size_t off = 0; off < kPageSize; off += config_.line_size) {
      Flush(start + off);
    }
  }

  bool Contains(PhysAddr paddr) { return Find(paddr) != nullptr; }

  void SaveState(snapshot::SnapshotWriter& w) const {
    std::uint64_t valid = 0;
    for (const Line& line : lines_) {
      valid += line.valid ? 1 : 0;
    }
    w.Bool(!lines_.empty());
    w.U64(valid);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].valid) {
        w.U64(i);
        w.U64(lines_[i].tag);
        w.U64(lines_[i].lru);
      }
    }
    for (const std::uint64_t v : {tick_, hits_, misses_, line_flushes_, frame_flushes_}) {
      w.U64(v);
    }
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t line_flushes() const { return line_flushes_; }
  std::uint64_t frame_flushes() const { return frame_flushes_; }
  // Coverage of the two victim rules: fills that evicted the LRU way, and
  // fills that had to pick among several empty ways.
  std::uint64_t lru_evictions() const { return lru_evictions_; }
  std::uint64_t choices_among_empty() const { return choices_among_empty_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };

  Line* Find(PhysAddr paddr) {
    if (lines_.empty()) {
      return nullptr;
    }
    const std::uint64_t tag = paddr / config_.line_size;
    Line* base = &lines_[(tag % config_.sets) * config_.ways];
    for (std::size_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        return &base[w];
      }
    }
    return nullptr;
  }

  CacheConfig config_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t line_flushes_ = 0;
  std::uint64_t frame_flushes_ = 0;
  std::uint64_t lru_evictions_ = 0;
  std::uint64_t choices_among_empty_ = 0;
};

// A cache's savestate bytes, framed as one "cache" section.
template <typename Cache>
std::string Saved(const Cache& cache) {
  snapshot::SnapshotWriter w;
  w.BeginSection("cache");
  cache.SaveState(w);
  w.EndSection();
  return w.Finish();
}

// Restores `image` into `llc` on a machine of `frame_count` frames; returns the
// failing section name, or "" on success.
std::string RestoreFailure(Llc& llc, const std::string& image,
                           std::size_t frame_count = std::size_t{1} << 16) {
  snapshot::SnapshotReader r(image);
  r.OpenSection("cache");
  try {
    llc.RestoreState(r, frame_count);
    r.EndSection();
  } catch (const snapshot::RestoreError& e) {
    return e.section();
  }
  return "";
}

// A committed cache image holding the given {index, tag, stamp} lines and
// zero counters.
std::string LinesImage(std::initializer_list<std::array<std::uint64_t, 3>> lines) {
  snapshot::SnapshotWriter w;
  w.BeginSection("cache");
  w.Bool(true);
  w.U64(lines.size());
  for (const auto& [index, tag, stamp] : lines) {
    w.U64(index);
    w.U64(tag);
    w.U64(stamp);
  }
  for (int counter = 0; counter < 5; ++counter) {
    w.U64(0);
  }
  w.EndSection();
  return w.Finish();
}

TEST(LlcTest, GeometryDerivation) {
  CacheConfig config;  // paper default
  EXPECT_EQ(config.size_bytes(), 8u * 1024 * 1024);
  EXPECT_EQ(config.page_colors(), 128u);
  Llc llc(config);
  EXPECT_EQ(llc.ColorOf(0), 0u);
  EXPECT_EQ(llc.ColorOf(128), 0u);
  EXPECT_EQ(llc.ColorOf(129), 1u);
}

TEST(LlcTest, MissThenHit) {
  Llc llc(SmallCache());
  EXPECT_FALSE(llc.Access(0x1000));
  EXPECT_TRUE(llc.Access(0x1000));
  EXPECT_TRUE(llc.Access(0x1038));  // same 64B line
  EXPECT_FALSE(llc.Access(0x1040));  // next line
  EXPECT_EQ(llc.hits(), 2u);
  EXPECT_EQ(llc.misses(), 2u);
}

TEST(LlcTest, LruEvictionWithinSet) {
  const CacheConfig config = SmallCache();
  Llc llc(config);
  const PhysAddr stride = config.sets * config.line_size;  // same set, different tags
  for (std::size_t i = 0; i < config.ways; ++i) {
    EXPECT_FALSE(llc.Access(i * stride));
  }
  // All ways hit.
  for (std::size_t i = 0; i < config.ways; ++i) {
    EXPECT_TRUE(llc.Access(i * stride));
  }
  // A fifth tag evicts the least recently used (tag 0).
  EXPECT_FALSE(llc.Access(config.ways * stride));
  EXPECT_FALSE(llc.Contains(0));
  EXPECT_TRUE(llc.Contains(1 * stride));
}

TEST(LlcTest, FlushRemovesLine) {
  Llc llc(SmallCache());
  llc.Access(0x2000);
  EXPECT_TRUE(llc.Contains(0x2000));
  llc.Flush(0x2000);
  EXPECT_FALSE(llc.Contains(0x2000));
  EXPECT_FALSE(llc.Access(0x2000));  // miss again
}

TEST(LlcTest, FlushFrameRemovesAllLines) {
  Llc llc(SmallCache());
  const FrameId frame = 7;
  for (std::size_t off = 0; off < kPageSize; off += 64) {
    llc.Access(static_cast<PhysAddr>(frame) * kPageSize + off);
  }
  llc.FlushFrame(frame);
  for (std::size_t off = 0; off < kPageSize; off += 64) {
    EXPECT_FALSE(llc.Contains(static_cast<PhysAddr>(frame) * kPageSize + off));
  }
}

TEST(LlcTest, ConstructorRejectsBadGeometry) {
  const auto geometry = [](std::size_t line_size, std::size_t ways, std::size_t sets) {
    return CacheConfig{.line_size = line_size, .ways = ways, .sets = sets};
  };
  EXPECT_THROW(Llc{geometry(48, 4, 256)}, std::invalid_argument);
  EXPECT_THROW(Llc{geometry(0, 4, 256)}, std::invalid_argument);
  EXPECT_THROW(Llc{geometry(2 * kPageSize, 4, 256)}, std::invalid_argument);
  EXPECT_THROW(Llc{geometry(64, 4, 100)}, std::invalid_argument);
  EXPECT_THROW(Llc{geometry(64, 4, 0)}, std::invalid_argument);
  EXPECT_THROW(Llc{geometry(64, 0, 256)}, std::invalid_argument);
  EXPECT_NO_THROW(Llc{geometry(64, 12, 256)});  // any nonzero way count
  EXPECT_NO_THROW(Llc{geometry(kPageSize, 1, 1)});
}

TEST(LlcTest, RestoreRejectsInconsistentLines) {
  // 256 sets x 4 ways: tag t lives in set t % 256, line indexes 4*(t%256) .. +3.
  Llc llc(SmallCache());
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, 5, 1}, {23, 5 + 256, 2}})), "");
  EXPECT_TRUE(llc.Contains(5 * 64));
  EXPECT_TRUE(llc.ValidateFrameLineCounters());
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{24, 5, 1}})), "cache") << "tag in the wrong set";
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, 5, 1}, {22, 5, 2}})), "cache")
      << "duplicate tag within a set";
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{1020, ~std::uint64_t{0}, 1}})), "cache")
      << "empty-way sentinel as a tag";
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, 5, 1}, {20, 5 + 256, 2}})), "cache")
      << "line index repeated";
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, 5, 0}})), "cache")
      << "zero stamp, the mark of an empty way";
  // 64 lines per page: tag 5 + 512 * f lives in set 5 and in frame 8 * f.
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, 5 + 512 * 1, 1}}), 8), "cache")
      << "tag of the first frame past physical memory";
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, 5 + 512 * 1, 1}}), 9), "")
      << "tag of the last frame";
  // High bits set: the frame number would have sized the per-frame counters.
  EXPECT_EQ(RestoreFailure(llc, LinesImage({{20, (std::uint64_t{1} << 62) + 5, 1}})), "cache")
      << "tag far past physical memory";
}

TEST(LlcTest, KeyBoundFollowsGeometry) {
  const auto geometry = [](std::size_t line_size, std::size_t ways, std::size_t sets) {
    return CacheConfig{.line_size = line_size, .ways = ways, .sets = sets};
  };
  const std::uint64_t every_frame = kInvalidFrame;  // frames 0 .. 2^32 - 2
  EXPECT_EQ(MachineConfig{}.l1_cache.max_frames(), every_frame);
  EXPECT_GE(CacheConfig{}.max_frames(), every_frame);
  EXPECT_EQ(geometry(kPageSize, 1, 1).max_frames(), every_frame);
  // One set of 64 B lines: frame f's last line keys to 64 f + 63, which must
  // stay below 2^32 - 1.
  EXPECT_EQ(geometry(64, 16, 1).max_frames(), (std::uint64_t{1} << 26) - 1);
  EXPECT_EQ(geometry(64, 16, 2).max_frames(), (std::uint64_t{1} << 27) - 1);
  EXPECT_EQ(geometry(64, 16, std::size_t{1} << 40).max_frames(), ~std::uint64_t{0});

  // Restore checks the key bound itself, for a caller whose memory is larger
  // than the geometry can key: with one set, a key is the whole tag.
  Llc one_set(geometry(64, 16, 1));
  const std::size_t frame_count = kInvalidFrame;
  EXPECT_EQ(RestoreFailure(one_set, LinesImage({{0, Llc::kNoKey - 1, 1}}), frame_count), "");
  EXPECT_TRUE(one_set.Contains(PhysAddr{Llc::kNoKey - 1} * 64));
  EXPECT_EQ(RestoreFailure(one_set, LinesImage({{0, Llc::kNoKey, 1}}), frame_count), "cache")
      << "tag keyed to the empty-way key";
  EXPECT_EQ(RestoreFailure(one_set, LinesImage({{0, (std::uint64_t{1} << 32) + 5, 1}}),
                           frame_count),
            "cache")
      << "tag whose key does not fit in 32 bits";
}

// The default L1 keys a line by its frame number alone, so frame 2^32 - 2 —
// the last one below kInvalidFrame — holds the largest key short of the
// empty-way key. Both default caches must fill, hit, evict, flush, save and
// restore its lines exactly.
TEST(LlcTest, DefaultGeometriesKeyTheLastFrame) {
  for (const CacheConfig& config : {MachineConfig{}.l1_cache, CacheConfig{}}) {
    SCOPED_TRACE(config.sets);
    const FrameId last = kInvalidFrame - 1;
    const PhysAddr line = static_cast<PhysAddr>(last) * kPageSize + kPageSize - 64;
    // The same line offset in frames page_colors() apart shares a set.
    const PhysAddr set_stride = static_cast<PhysAddr>(config.page_colors()) * kPageSize;
    Llc llc(config);
    EXPECT_FALSE(llc.Access(line));
    EXPECT_TRUE(llc.Access(line));
    EXPECT_TRUE(llc.Contains(line));
    EXPECT_FALSE(llc.Contains(line - set_stride));

    const std::string image = Saved(llc);
    Llc restored(config);
    EXPECT_EQ(RestoreFailure(restored, image, last), "cache") << "frame past memory";
    ASSERT_EQ(RestoreFailure(restored, image, kInvalidFrame), "");
    EXPECT_EQ(Saved(restored), image);
    EXPECT_TRUE(restored.Access(line));
    EXPECT_TRUE(restored.ValidateFrameLineCounters());

    // `ways` more lines of the set evict it, and the counters follow.
    for (std::size_t i = 1; i <= config.ways; ++i) {
      EXPECT_FALSE(llc.Access(line - i * set_stride));
    }
    EXPECT_FALSE(llc.Contains(line));
    EXPECT_TRUE(llc.ValidateFrameLineCounters());
    const PhysAddr newest = line - config.ways * set_stride;
    EXPECT_TRUE(llc.Access(newest));
    EXPECT_FALSE(llc.Access(line));
    llc.Flush(line);
    EXPECT_FALSE(llc.Contains(line));
    EXPECT_EQ(llc.line_flushes(), 1u);
    llc.FlushFrame(static_cast<FrameId>(newest / kPageSize));
    EXPECT_FALSE(llc.Contains(newest));
    EXPECT_EQ(llc.frame_flushes(), 1u);
    EXPECT_TRUE(llc.ValidateFrameLineCounters());
    // The per-frame counters span the frames seen, not every frame below them.
    EXPECT_LT(llc.resident_bytes(), std::size_t{4} << 20);
  }
}

TEST(LlcTest, CacheSmallerThanAPageHasOneColor) {
  // 32 sets of 64 B lines cover half a page: every frame has the same color.
  const CacheConfig config{.line_size = 64, .ways = 4, .sets = 32};
  EXPECT_EQ(config.page_colors(), 1u);
  Llc llc(config);
  EXPECT_EQ(llc.ColorOf(0), 0u);
  EXPECT_EQ(llc.ColorOf(12345), 0u);
  const std::vector<FrameId> frames{10, 11, 12};
  ColorEvictionSets incomplete(frames, config);
  EXPECT_EQ(incomplete.colors(), 1u);
  EXPECT_FALSE(incomplete.complete());
  const std::vector<FrameId> more{10, 11, 12, 13, 14};
  ColorEvictionSets sets(more, config);
  ASSERT_TRUE(sets.complete());
  EXPECT_EQ(sets.frames_for(0), (std::vector<FrameId>{10, 11, 12, 13}));
}

// Differential check of the flat layout against ReferenceLlc: seeded streams of
// Access/Contains/Flush/FlushFrame over a working set of about twice the
// cache's lines, so sets both hit and evict, and flushes leave holes that the
// empty-way victim rule must fill. Way counts that are not a multiple of four
// leave a partial last key group, and 48 ways need a mask wider than 32 bits.
class LlcDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LlcDifferentialTest, MatchesReferenceModel) {
  const auto [ways, sets] = GetParam();
  const CacheConfig config{.line_size = 64, .ways = ways, .sets = sets};
  Llc llc(config);
  ReferenceLlc ref(config);
  const std::uint64_t lines = 2 * ways * sets + 5;
  Rng rng(1000 * ways + sets);
  const auto check_state = [&](int op) {
    ASSERT_EQ(llc.hits(), ref.hits()) << "op " << op;
    ASSERT_EQ(llc.misses(), ref.misses()) << "op " << op;
    ASSERT_EQ(llc.line_flushes(), ref.line_flushes()) << "op " << op;
    ASSERT_EQ(llc.frame_flushes(), ref.frame_flushes()) << "op " << op;
    ASSERT_TRUE(llc.ValidateFrameLineCounters()) << "op " << op;
    ASSERT_EQ(Saved(llc), Saved(ref)) << "op " << op;
  };
  for (int op = 0; op < 20000; ++op) {
    const PhysAddr paddr = rng.NextBelow(lines) * config.line_size + rng.NextBelow(64);
    const std::uint64_t kind = rng.NextBelow(100);
    if (kind < 70) {
      ASSERT_EQ(llc.Access(paddr), ref.Access(paddr)) << "op " << op;
    } else if (kind < 85) {
      ASSERT_EQ(llc.Contains(paddr), ref.Contains(paddr)) << "op " << op;
    } else if (kind < 97) {
      llc.Flush(paddr);
      ref.Flush(paddr);
    } else {
      llc.FlushFrame(static_cast<FrameId>(paddr / kPageSize));
      ref.FlushFrame(static_cast<FrameId>(paddr / kPageSize));
    }
    if (op % 500 == 499) {
      check_state(op);
    }
  }
  check_state(-1);
  // Flushes keep the sets of a wide cache from filling, so an access-only
  // phase over the same lines then fills every set and evicts by LRU.
  for (std::uint64_t op = 0; op < 2 * ways * sets; ++op) {
    const PhysAddr paddr = rng.NextBelow(lines) * config.line_size;
    ASSERT_EQ(llc.Access(paddr), ref.Access(paddr)) << "fill op " << op;
  }
  check_state(-2);
  EXPECT_GT(ref.lru_evictions(), 0u);
  if (ways > 1) {
    EXPECT_GT(ref.choices_among_empty(), 0u);
  }

  // A restored copy carries on exactly like the reference.
  Llc restored(config);
  ASSERT_EQ(RestoreFailure(restored, Saved(llc)), "");
  ASSERT_EQ(Saved(restored), Saved(ref));
  for (int op = 0; op < 2000; ++op) {
    const PhysAddr paddr = rng.NextBelow(lines) * config.line_size;
    ASSERT_EQ(restored.Access(paddr), ref.Access(paddr)) << "restored op " << op;
  }
  ASSERT_TRUE(restored.ValidateFrameLineCounters());
  ASSERT_EQ(Saved(restored), Saved(ref));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LlcDifferentialTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 4, 12, 16, 48),
                       ::testing::Values<std::size_t>(1, 64, 256)),
    [](const ::testing::TestParamInfo<LlcDifferentialTest::ParamType>& info) {
      return "W" + std::to_string(std::get<0>(info.param)) + "S" +
             std::to_string(std::get<1>(info.param));
    });

TEST(EvictionSetTest, GroupsByColorAndDetectsCompleteness) {
  CacheConfig config;
  std::vector<FrameId> frames;
  // ways frames for every color: frames 0..(colors*ways-1) cover colors cyclically.
  for (FrameId f = 0; f < config.page_colors() * config.ways; ++f) {
    frames.push_back(f);
  }
  ColorEvictionSets sets(frames, config);
  EXPECT_TRUE(sets.complete());
  EXPECT_EQ(sets.colors(), config.page_colors());
  EXPECT_EQ(sets.frames_for(5).size(), config.ways);
  for (const FrameId f : sets.frames_for(5)) {
    EXPECT_EQ(f % config.page_colors(), 5u);
  }
}

TEST(EvictionSetTest, IncompleteWhenColorsMissing) {
  CacheConfig config;
  std::vector<FrameId> frames{0, 1, 2};
  ColorEvictionSets sets(frames, config);
  EXPECT_FALSE(sets.complete());
}

TEST(EvictionSetTest, TraversePrimesTheColor) {
  CacheConfig config;
  config.sets = 512;  // 8 colors
  config.ways = 4;
  Llc llc(config);
  std::vector<FrameId> frames;
  for (FrameId f = 0; f < config.page_colors() * config.ways; ++f) {
    frames.push_back(f);
  }
  ColorEvictionSets sets(frames, config);
  ASSERT_TRUE(sets.complete());
  // A victim line of color 3, chosen outside the eviction set's frames.
  const FrameId victim_frame = 3 + 8 * config.ways;
  const PhysAddr victim = static_cast<PhysAddr>(victim_frame) * kPageSize;
  llc.Access(victim);
  ASSERT_TRUE(llc.Contains(victim));
  // Priming color 3 walks ways*lines addresses of that color and evicts the victim.
  sets.Traverse(3, [&](FrameId frame, std::size_t offset) {
    llc.Access(static_cast<PhysAddr>(frame) * kPageSize + offset);
    return SimTime{0};
  });
  EXPECT_FALSE(llc.Contains(victim));
  // Priming a different color leaves lines of color 3 alone.
  llc.Access(victim);
  sets.Traverse(5, [&](FrameId frame, std::size_t offset) {
    llc.Access(static_cast<PhysAddr>(frame) * kPageSize + offset);
    return SimTime{0};
  });
  EXPECT_TRUE(llc.Contains(victim));
}

}  // namespace
}  // namespace vusion
