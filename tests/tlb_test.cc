#include "src/mmu/tlb.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <list>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/snapshot/io.h"

namespace vusion {
namespace {

// The std::list + std::unordered_map TLB the slot array replaced, kept as the
// reference it must match exactly: list front = most recent, eviction at the
// back, entries saved front to back.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(std::size_t capacity) : capacity_(capacity) {}

  std::optional<Pte> Lookup(Vpn vpn) {
    const auto it = map_.find(vpn);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->pte;
  }

  void Insert(Vpn vpn, const Pte& pte) {
    const auto it = map_.find(vpn);
    if (it != map_.end()) {
      it->second->pte = pte;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back().vpn);
      lru_.pop_back();
    }
    lru_.push_front(Entry{vpn, pte});
    map_[vpn] = lru_.begin();
  }

  void Invalidate(Vpn vpn) {
    const auto it = map_.find(vpn);
    if (it != map_.end()) {
      lru_.erase(it->second);
      map_.erase(it);
    }
  }

  void InvalidateRange(Vpn start, Vpn end) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->vpn >= start && it->vpn < end) {
        map_.erase(it->vpn);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Flush() {
    lru_.clear();
    map_.clear();
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return map_.size(); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : lru_) {
      fn(entry.vpn, entry.pte);
    }
  }

  void SaveState(snapshot::SnapshotWriter& w) const {
    w.U64(lru_.size());
    for (const Entry& entry : lru_) {
      w.U64(entry.vpn);
      w.U32(entry.pte.frame);
      w.U16(entry.pte.flags);
    }
    w.U64(hits_);
    w.U64(misses_);
  }

 private:
  struct Entry {
    Vpn vpn;
    Pte pte;
  };

  std::size_t capacity_;
  std::list<Entry> lru_;
  std::unordered_map<Vpn, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

template <typename T>
std::string Saved(const T& tlb) {
  snapshot::SnapshotWriter w;
  w.BeginSection("procs");
  tlb.SaveState(w);
  w.EndSection();
  return w.Finish();
}

template <typename T>
std::vector<std::pair<Vpn, Pte>> Entries(const T& tlb) {
  std::vector<std::pair<Vpn, Pte>> out;
  tlb.ForEach([&out](Vpn vpn, const Pte& pte) { out.emplace_back(vpn, pte); });
  return out;
}

bool SameEntries(const std::vector<std::pair<Vpn, Pte>>& a,
                 const std::vector<std::pair<Vpn, Pte>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second.frame != b[i].second.frame ||
        a[i].second.flags != b[i].second.flags) {
      return false;
    }
  }
  return true;
}

bool SameLookup(const std::optional<Pte>& a, const std::optional<Pte>& b) {
  return a.has_value() == b.has_value() &&
         (!a.has_value() || (a->frame == b->frame && a->flags == b->flags));
}

// Restores `image` into `tlb`; returns the failing section name, or "" on success.
std::string RestoreFailure(Tlb& tlb, const std::string& image) {
  snapshot::SnapshotReader r(image);
  r.OpenSection("procs");
  try {
    tlb.RestoreState(r);
    r.EndSection();
  } catch (const snapshot::RestoreError& e) {
    return e.section();
  }
  return "";
}

// A TLB savestate holding `vpns` most recent first, each mapped to frame vpn+100.
std::string TlbImage(std::initializer_list<Vpn> vpns) {
  snapshot::SnapshotWriter w;
  w.BeginSection("procs");
  w.U64(vpns.size());
  for (const Vpn vpn : vpns) {
    w.U64(vpn);
    w.U32(static_cast<FrameId>(vpn + 100));
    w.U16(kPtePresent);
  }
  w.U64(0);
  w.U64(0);
  w.EndSection();
  return w.Finish();
}

TEST(TlbTest, MissThenHit) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.Lookup(1).has_value());
  tlb.Insert(1, Pte{10, kPtePresent});
  const auto hit = tlb.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->frame, 10u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, LruEvictionAtCapacity) {
  Tlb tlb(3);
  tlb.Insert(1, Pte{1, kPtePresent});
  tlb.Insert(2, Pte{2, kPtePresent});
  tlb.Insert(3, Pte{3, kPtePresent});
  tlb.Lookup(1);  // 1 most recent; 2 is LRU
  tlb.Insert(4, Pte{4, kPtePresent});
  EXPECT_TRUE(tlb.Lookup(1).has_value());
  EXPECT_FALSE(tlb.Lookup(2).has_value());  // evicted
  EXPECT_TRUE(tlb.Lookup(3).has_value());
  EXPECT_TRUE(tlb.Lookup(4).has_value());
}

TEST(TlbTest, InsertUpdatesExisting) {
  Tlb tlb(4);
  tlb.Insert(7, Pte{1, kPtePresent});
  tlb.Insert(7, Pte{2, kPtePresent | kPteWritable});
  EXPECT_EQ(tlb.size(), 1u);
  const auto entry = tlb.Lookup(7);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->frame, 2u);
  EXPECT_TRUE(entry->writable());
}

TEST(TlbTest, InvalidateSingle) {
  Tlb tlb(4);
  tlb.Insert(5, Pte{5, kPtePresent});
  tlb.Invalidate(5);
  EXPECT_FALSE(tlb.Lookup(5).has_value());
  tlb.Invalidate(99);  // no-op on absent entry
}

TEST(TlbTest, InvalidateRange) {
  Tlb tlb(8);
  for (Vpn vpn = 10; vpn < 18; ++vpn) {
    tlb.Insert(vpn, Pte{static_cast<FrameId>(vpn), kPtePresent});
  }
  tlb.InvalidateRange(12, 15);
  EXPECT_TRUE(tlb.Lookup(10).has_value());
  EXPECT_FALSE(tlb.Lookup(12).has_value());
  EXPECT_FALSE(tlb.Lookup(14).has_value());
  EXPECT_TRUE(tlb.Lookup(15).has_value());
}

TEST(TlbTest, Flush) {
  Tlb tlb(8);
  tlb.Insert(1, Pte{1, kPtePresent});
  tlb.Insert(2, Pte{2, kPtePresent});
  tlb.Flush();
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_FALSE(tlb.Lookup(1).has_value());
}

TEST(TlbTest, ZeroCapacityRejected) { EXPECT_THROW(Tlb{0}, std::invalid_argument); }

TEST(TlbTest, RestoreRejectsOverCapacity) {
  Tlb tlb(2);
  EXPECT_EQ(RestoreFailure(tlb, TlbImage({1, 2})), "");
  EXPECT_EQ(tlb.size(), 2u);
  EXPECT_EQ(RestoreFailure(tlb, TlbImage({1, 2, 3})), "procs");
}

TEST(TlbTest, RestoreRejectsDuplicateVpn) {
  Tlb tlb(4);
  EXPECT_EQ(RestoreFailure(tlb, TlbImage({1, 2, 1})), "procs");
}

TEST(TlbTest, RestoreKeepsMostRecentFirstOrder) {
  Tlb tlb(4);
  ASSERT_EQ(RestoreFailure(tlb, TlbImage({7, 3, 9})), "");
  const auto entries = Entries(tlb);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 7u);
  EXPECT_EQ(entries[2].first, 9u);
  tlb.Insert(1, Pte{1, kPtePresent});
  tlb.Insert(2, Pte{2, kPtePresent});  // full: evicts 9, the least recent
  EXPECT_FALSE(tlb.Lookup(9).has_value());
  EXPECT_EQ(tlb.Lookup(3)->frame, 103u);
}

// Differential check of the slot-array TLB against ReferenceTlb: seeded streams
// of every operation over a vpn range about twice the capacity, comparing each
// return value, the counters, the recency order and the savestate bytes.
class TlbDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TlbDifferentialTest, MatchesReferenceModel) {
  const std::size_t capacity = GetParam();
  Tlb tlb(capacity);
  ReferenceTlb ref(capacity);
  Rng rng(capacity);
  const std::uint64_t vpns = 2 * capacity + 3;
  for (int op = 0; op < 20000; ++op) {
    const Vpn vpn = rng.NextBelow(vpns);
    const std::uint64_t kind = rng.NextBelow(100);
    if (kind < 45) {
      ASSERT_TRUE(SameLookup(tlb.Lookup(vpn), ref.Lookup(vpn))) << "op " << op;
    } else if (kind < 80) {
      const Pte pte{static_cast<FrameId>(rng.NextBelow(1000)),
                    static_cast<std::uint16_t>(rng.NextBelow(512))};
      tlb.Insert(vpn, pte);
      ref.Insert(vpn, pte);
    } else if (kind < 90) {
      tlb.Invalidate(vpn);
      ref.Invalidate(vpn);
    } else if (kind < 99) {
      const Vpn end = vpn + rng.NextBelow(5);
      tlb.InvalidateRange(vpn, end);
      ref.InvalidateRange(vpn, end);
    } else {
      tlb.Flush();
      ref.Flush();
    }
    ASSERT_EQ(tlb.hits(), ref.hits()) << "op " << op;
    ASSERT_EQ(tlb.misses(), ref.misses()) << "op " << op;
    ASSERT_EQ(tlb.size(), ref.size()) << "op " << op;
    ASSERT_TRUE(SameEntries(Entries(tlb), Entries(ref))) << "op " << op;
    ASSERT_EQ(Saved(tlb), Saved(ref)) << "op " << op;
  }

  // A restored copy carries on exactly like the reference.
  Tlb restored(capacity);
  ASSERT_EQ(RestoreFailure(restored, Saved(tlb)), "");
  for (int op = 0; op < 2000; ++op) {
    const Vpn vpn = rng.NextBelow(vpns);
    if (rng.NextBelow(2) == 0) {
      ASSERT_TRUE(SameLookup(restored.Lookup(vpn), ref.Lookup(vpn))) << "restored op " << op;
    } else {
      restored.Insert(vpn, Pte{static_cast<FrameId>(op), kPtePresent});
      ref.Insert(vpn, Pte{static_cast<FrameId>(op), kPtePresent});
    }
    ASSERT_EQ(Saved(restored), Saved(ref)) << "restored op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferentialTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vusion
