// Inclusive, physically-indexed set-associative last-level cache simulator.
//
// Default geometry mirrors the paper's testbed (Intel Xeon E3-1240 v5): 8 MB, 16
// ways, 64 B lines, 8192 sets; each 4 KB page covers 64 consecutive sets, giving
// 8192/64 = 128 page colors. The LLC is what makes PRIME+PROBE (page-color attack),
// FLUSH+RELOAD (page-sharing attack), and AnC-style page-walk probing expressible.
//
// Layout: structure-of-arrays. A set is `ways` consecutive 32-bit keys in
// `keys_` plus the matching last-touched stamps in `lru_`. A key is the line's
// tag with the set-index bits shifted out (tag >> log2(sets)); the set it sits
// in supplies those bits back, so the full tag is (key << log2(sets)) | set. An
// empty way holds the sentinel key kNoKey and the stamp 0 instead of a valid
// flag. Line size and set count are powers of two, so the set index is a shift
// and a mask — the access path divides nothing — and the default 16-way set's
// keys take 64 bytes, which MatchMask compares four keys at a time. The key
// array is not aligned to host lines, so one set's keys may span two.

#ifndef VUSION_SRC_CACHE_LLC_H_
#define VUSION_SRC_CACHE_LLC_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/phys/frame.h"
#include "src/sim/latency_model.h"

namespace vusion {

using PhysAddr = std::uint64_t;

struct CacheConfig {
  std::size_t line_size = 64;
  std::size_t ways = 16;
  std::size_t sets = 8192;

  [[nodiscard]] std::size_t size_bytes() const { return line_size * ways * sets; }
  // Number of page colors: sets covered by the whole cache / sets covered by a
  // page. A cache smaller than a page's lines still has one color.
  [[nodiscard]] std::size_t page_colors() const {
    return std::max<std::size_t>(1, sets / (kPageSize / line_size));
  }
  // Why an Llc cannot be built with this geometry, or nullptr if it can:
  // line_size and sets must be powers of two, ways nonzero, and a line no
  // larger than a page.
  [[nodiscard]] const char* GeometryError() const;
  // The most frames an Llc of this (valid) geometry can key: every line of
  // frames [0, max_frames()) has a key below Llc::kNoKey. A machine with more
  // frames cannot use this geometry.
  [[nodiscard]] std::uint64_t max_frames() const;
};

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class Llc {
 public:
  // Key of an empty way. Every real key is smaller (see max_frames()).
  static constexpr std::uint32_t kNoKey = ~std::uint32_t{0};

  // Throws std::invalid_argument when config.GeometryError() is non-null.
  // Addresses passed in must lie below config.max_frames() frames.
  explicit Llc(const CacheConfig& config);

  // Savestates: valid lines (index/full tag/lru) plus the tick and counters;
  // the per-frame line counts are a rebuildable index and are reconstructed.
  // Restore rejects a line whose frame is at or past `frame_count`, the
  // machine's physical memory size, before keying it or sizing the counters.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r, std::size_t frame_count);

  // Touches the line containing paddr. Returns true on hit. Does not charge
  // latency; the memory hierarchy (Machine) composes cache and DRAM timing.
  bool Access(PhysAddr paddr) {
    const std::uint64_t tag = paddr >> line_shift_;
    if (!keys_.empty()) {
      const std::size_t base = SetBase(tag);
      const std::size_t way = FindWay(base, KeyOf(tag));
      if (way != ways_) {
        lru_[base + way] = ++tick_;
        ++hits_;
        return true;
      }
    }
    Fill(tag);
    return false;
  }

  // clflush: evicts the line containing paddr if present.
  void Flush(PhysAddr paddr);

  // Evicts every line of the frame (used when a frame is freed or remapped
  // cache-disabled, and by attackers flushing a whole page).
  void FlushFrame(FrameId frame);

  [[nodiscard]] bool Contains(PhysAddr paddr) const;

  // Color of a physical frame under this geometry (pfn mod page_colors()).
  [[nodiscard]] std::size_t ColorOf(FrameId frame) const;
  [[nodiscard]] std::size_t SetIndexOf(PhysAddr paddr) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  // Lines actually evicted by Flush()/FlushFrame() (not no-op flush calls).
  [[nodiscard]] std::uint64_t line_flushes() const { return line_flushes_; }
  [[nodiscard]] std::uint64_t frame_flushes() const { return frame_flushes_; }

  // Recomputes per-frame cached-line counts from the key array and compares
  // them against the incremental counters; false on any mismatch. Audit/test
  // use only (O(sets * ways)).
  [[nodiscard]] bool ValidateFrameLineCounters() const;

  // Host bytes committed to the key/stamp arrays and per-frame counters. The
  // arrays are allocated on the first fill, so idle machines in a fleet (booted
  // but not yet issuing timed accesses) carry no cache-model overhead.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  using KeyVec = std::uint32_t __attribute__((vector_size(16)));
  // Keys past the last set, so MatchMask's four-key loads stay in bounds.
  static constexpr std::size_t kKeyPad = sizeof(KeyVec) / sizeof(std::uint32_t) - 1;

  [[nodiscard]] std::size_t SetBase(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag & set_mask_) * ways_;
  }
  [[nodiscard]] std::uint32_t KeyOf(std::uint64_t tag) const {
    return static_cast<std::uint32_t>(tag >> set_shift_);
  }
  // The full tag of the key in way `w` of set `set`.
  [[nodiscard]] std::uint64_t TagAt(std::size_t set, std::size_t w) const {
    return (std::uint64_t{keys_[set * ways_ + w]} << set_shift_) | set;
  }
  [[nodiscard]] std::size_t FrameOfTag(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag >> lines_per_page_shift_);
  }

  // Bit i is set when keys[i] == key, for i < count (1 <= count <= 32). Four
  // keys per vector compare; lanes past `count` may read the next set or the
  // padding and are masked off.
  static std::uint32_t MatchMask(const std::uint32_t* keys, std::uint32_t key,
                                 std::size_t count) {
    const KeyVec want = KeyVec{} + key;
    KeyVec bits{};
    for (std::size_t w = 0; w < count; w += 4) {
      KeyVec group;
      std::memcpy(&group, keys + w, sizeof group);
      bits |= __builtin_bit_cast(KeyVec, group == want) & (KeyVec{1, 2, 4, 8} << w);
    }
    bits |= __builtin_shufflevector(bits, bits, 2, 3, 0, 1);
    bits |= __builtin_shufflevector(bits, bits, 1, 0, 3, 2);
    return bits[0] & (~std::uint32_t{0} >> (32 - count));
  }
  // The way of the set at `base` that holds `key`, or ways_ if none does. A
  // set holds each line's key once. Sets wider than 32 ways are matched 32
  // ways at a time.
  [[nodiscard]] std::size_t FindWay(std::size_t base, std::uint32_t key) const {
    for (std::size_t first = 0; first < ways_; first += 32) {
      const std::uint32_t match =
          MatchMask(keys_.data() + base + first, key, std::min<std::size_t>(ways_ - first, 32));
      if (match != 0) {
        return first + static_cast<std::size_t>(std::countr_zero(match));
      }
    }
    return ways_;
  }

  // Miss path: commits the arrays on first use, then fills the set's victim.
  void Fill(std::uint64_t tag);
  // Exact per-frame cached-line accounting, maintained on every fill, eviction,
  // and flush. FlushFrame is called for every freed/remapped frame — the vast
  // majority holding zero cached lines — so the counter turns its
  // lines-per-page × ways probe sweep into an O(1) skip. The counters cover
  // the frames [frame_lines_base_, frame_lines_base_ + size) seen so far.
  void AdjustFrameLines(std::uint64_t tag, int delta) {
    std::size_t slot = FrameOfTag(tag) - frame_lines_base_;
    if (slot >= frame_lines_.size()) {
      slot = GrowFrameLines(FrameOfTag(tag));
    }
    frame_lines_[slot] = static_cast<std::uint16_t>(frame_lines_[slot] + delta);
  }
  // Widens the counters to cover `frame`; returns its slot.
  [[gnu::cold]] std::size_t GrowFrameLines(std::size_t frame);

  // Hot geometry first: the inline hit scan reads only these and the arrays.
  unsigned line_shift_ = 0;        // log2(line_size)
  unsigned set_shift_ = 0;         // log2(sets)
  std::uint64_t set_mask_ = 0;     // sets - 1
  std::size_t ways_ = 0;
  // sets * ways each (plus kKeyPad keys), row-major by set; empty until the
  // first fill (an empty array means "nothing cached", so flush/lookup paths
  // short-circuit on it). The default 8 MB geometry costs 1.5 MB of host
  // memory per instance — a per-Machine fixed cost a large fleet cannot
  // afford to pay up front.
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint64_t> lru_;  // last-touched stamp per way, 0 when empty
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  unsigned lines_per_page_shift_ = 0;  // log2(kPageSize / line_size)
  std::size_t frame_lines_base_ = 0;
  std::vector<std::uint16_t> frame_lines_;  // cached-line count per frame, grown lazily
  std::uint64_t line_flushes_ = 0;
  std::uint64_t frame_flushes_ = 0;
  CacheConfig config_;
};

}  // namespace vusion

#endif  // VUSION_SRC_CACHE_LLC_H_
