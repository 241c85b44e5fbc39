// Open-addressed hash map from 64-bit keys to small values, for the scan hot
// path's side lookups (KSM's rmap and checksum gate, the stable-tree content
// index).
//
// Why not std::unordered_map: the node-based buckets cost an allocation and two
// dependent cache misses per probe; the scan loop does several such probes per
// page. FlatMap64 stores key/value pairs inline in one power-of-2 table (linear
// probing, SplitMix64-mixed keys) and erases by backward-shift, so lookups are
// one or two contiguous cache lines and the table never accumulates tombstones.
//
// Host-only: probe order and table layout never feed the simulated clock or any
// simulated decision. Not thread safe. Keys are arbitrary 64-bit values
// (including 0); values must be cheap to move.

#ifndef VUSION_SRC_CONTAINER_FLAT_MAP_H_
#define VUSION_SRC_CONTAINER_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vusion {

// Default key mixer: SplitMix64 finalizer. Keys like (pid << 40) ^ vpn are
// heavily structured, and a power-of-2 mask needs well-mixed low bits.
struct SplitMix64Hash {
  static std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

// Locality-preserving mixer for key spaces that are dense sequential runs (the
// checksum gate's per-process vpns): adjacent keys land in adjacent slots, so a
// sequential scan walks consecutive cache lines (several slots per line, and
// the hardware prefetcher follows) instead of taking a random miss per probe.
// Runs stay collision-free because the table holds at most half its capacity.
struct IdentityHash {
  static std::uint64_t Mix(std::uint64_t k) { return k; }
};

template <typename V, typename Hash = SplitMix64Hash>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  void reserve(std::size_t n) { Rehash(TableFor(n)); }

  [[nodiscard]] bool contains(std::uint64_t key) const { return FindSlot(key) != nullptr; }

  // Prefetches the key's home cache line for an upcoming probe. KSM's scan loop
  // issues these before the page's hash and descend charges, so the probe's
  // likely cache miss overlaps that work instead of stalling the probe itself.
  void Prefetch(std::uint64_t key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[IndexOf(key)]);
    }
  }

  // Pointer to the mapped value, or nullptr. Invalidated by any mutation.
  [[nodiscard]] V* find(std::uint64_t key) {
    Slot* s = const_cast<Slot*>(FindSlot(key));
    return s == nullptr ? nullptr : &s->value;
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    const Slot* s = FindSlot(key);
    return s == nullptr ? nullptr : &s->value;
  }

  // Inserts or overwrites; returns the mapped value.
  V& insert_or_assign(std::uint64_t key, V value) {
    // Grow at 1/2 load: the scan loop's probes are mostly *misses* (stable
    // index, rmap on unique pages), and unsuccessful linear-probe search cost
    // explodes with load factor (~32 slots at 7/8, ~2.5 at 1/2). Slots are
    // small; the doubled table is cheaper than the probe runs.
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? kMinTable : slots_.size() * 2);
    }
    std::size_t i = IndexOf(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        slots_[i].value = std::move(value);
        return slots_[i].value;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{key, std::move(value), true};
    ++size_;
    return slots_[i].value;
  }

  // Returns the value for key, default-constructing it if absent.
  V& operator[](std::uint64_t key) {
    if (V* v = find(key)) {
      return *v;
    }
    return insert_or_assign(key, V{});
  }

  // Removes key if present; returns whether it was. Backward-shift deletion:
  // following slots whose probe path crossed the hole are moved back into it,
  // so no tombstones exist and lookups stay two-branch.
  bool erase(std::uint64_t key) {
    Slot* s = const_cast<Slot*>(FindSlot(key));
    if (s == nullptr) {
      return false;
    }
    std::size_t hole = static_cast<std::size_t>(s - slots_.data());
    std::size_t i = (hole + 1) & mask_;
    while (slots_[i].used) {
      const std::size_t home = IndexOf(slots_[i].key);
      // Move back iff the hole lies on the probe path from home to i,
      // i.e. cyclic-distance(home -> hole) < cyclic-distance(home -> i).
      if (((hole - home) & mask_) < ((i - home) & mask_)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
      i = (i + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Visits every (key, value) pair in unspecified order. The callback must not
  // mutate the map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  static constexpr std::size_t kMinTable = 16;

  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static std::size_t TableFor(std::size_t n) {
    std::size_t cap = kMinTable;
    while (cap < n * 2) {
      cap *= 2;
    }
    return cap;
  }

  [[nodiscard]] std::size_t IndexOf(std::uint64_t key) const {
    return static_cast<std::size_t>(Hash::Mix(key)) & mask_;
  }

  [[nodiscard]] const Slot* FindSlot(std::uint64_t key) const {
    if (slots_.empty()) {
      return nullptr;
    }
    std::size_t i = IndexOf(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        return &slots_[i];
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  void Rehash(std::size_t new_cap) {
    if (new_cap <= slots_.size()) {
      return;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (!s.used) {
        continue;
      }
      std::size_t i = IndexOf(s.key);
      while (slots_[i].used) {
        i = (i + 1) & mask_;
      }
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_CONTAINER_FLAT_MAP_H_
