// Inclusive, physically-indexed set-associative last-level cache simulator.
//
// Default geometry mirrors the paper's testbed (Intel Xeon E3-1240 v5): 8 MB, 16
// ways, 64 B lines, 8192 sets; each 4 KB page covers 64 consecutive sets, giving
// 8192/64 = 128 page colors. The LLC is what makes PRIME+PROBE (page-color attack),
// FLUSH+RELOAD (page-sharing attack), and AnC-style page-walk probing expressible.
//
// Layout: structure-of-arrays. A set is `ways` consecutive tags in `tags_` plus
// the matching last-touched stamps in `lru_`; an empty way holds the sentinel
// tag kNoTag instead of a valid flag. Line size and set count are powers of two,
// so the set index is a shift and a mask — the access path divides nothing.

#ifndef VUSION_SRC_CACHE_LLC_H_
#define VUSION_SRC_CACHE_LLC_H_

#include <cstdint>
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
  // Number of page colors: sets covered by the whole cache / sets covered by a page.
  [[nodiscard]] std::size_t page_colors() const { return sets / (kPageSize / line_size); }
  // Why an Llc cannot be built with this geometry, or nullptr if it can:
  // line_size and sets must be powers of two, ways nonzero, and a line no
  // larger than a page.
  [[nodiscard]] const char* GeometryError() const;
};

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class Llc {
 public:
  // Throws std::invalid_argument when config.GeometryError() is non-null.
  explicit Llc(const CacheConfig& config);

  // Savestates: valid lines (index/tag/lru) plus the tick and counters; the
  // per-frame line counts are a rebuildable index and are reconstructed.
  // Restore rejects a line whose frame is at or past `frame_count`, the
  // machine's physical memory size, before sizing the counters by it.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r, std::size_t frame_count);

  // Touches the line containing paddr. Returns true on hit. Does not charge
  // latency; the memory hierarchy (Machine) composes cache and DRAM timing.
  bool Access(PhysAddr paddr) {
    const std::uint64_t tag = paddr >> line_shift_;
    if (!tags_.empty()) {
      const std::size_t base = SetBase(tag);
      const std::uint64_t* tags = tags_.data() + base;
      for (std::size_t w = 0; w < ways_; ++w) {
        if (tags[w] == tag) {
          lru_[base + w] = ++tick_;
          ++hits_;
          return true;
        }
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

  // Recomputes per-frame cached-line counts from the tag array and compares
  // against the incremental frame_lines_ counters; false on any mismatch.
  // Audit/test use only (O(sets * ways)).
  [[nodiscard]] bool ValidateFrameLineCounters() const;

  // Host bytes committed to the tag/stamp arrays and per-frame counters. The
  // arrays are allocated on the first fill, so idle machines in a fleet (booted
  // but not yet issuing timed accesses) carry no cache-model overhead.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  // Tag of an empty way. Physical addresses stay below 2^44 (32-bit frame
  // numbers), so no line's tag can collide with it.
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

  [[nodiscard]] std::size_t SetBase(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag & set_mask_) * ways_;
  }
  [[nodiscard]] std::size_t FrameOfTag(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag >> lines_per_page_shift_);
  }
  // Miss path: commits the arrays on first use, then fills the set's victim.
  void Fill(std::uint64_t tag);
  // Exact per-frame cached-line accounting, maintained on every fill, eviction,
  // and flush. FlushFrame is called for every freed/remapped frame — the vast
  // majority holding zero cached lines — so the counter turns its
  // lines-per-page × ways probe sweep into an O(1) skip.
  void AdjustFrameLines(std::uint64_t tag, int delta) {
    const std::size_t frame = FrameOfTag(tag);
    if (frame >= frame_lines_.size()) {
      GrowFrameLines(frame);
    }
    frame_lines_[frame] = static_cast<std::uint16_t>(frame_lines_[frame] + delta);
  }
  [[gnu::cold]] void GrowFrameLines(std::size_t frame) { frame_lines_.resize(frame + 1, 0); }

  // Hot geometry first: the inline hit scan reads only these and the arrays.
  unsigned line_shift_ = 0;        // log2(line_size)
  std::uint64_t set_mask_ = 0;     // sets - 1
  std::size_t ways_ = 0;
  // sets * ways each, row-major by set; empty until the first fill (an empty
  // array means "nothing cached", so flush/lookup paths short-circuit on it).
  // The default 8 MB geometry costs 2 MB of host memory per instance — a
  // per-Machine fixed cost a large fleet cannot afford to pay up front.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;  // last-touched stamp per way
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  unsigned lines_per_page_shift_ = 0;  // log2(kPageSize / line_size)
  std::vector<std::uint16_t> frame_lines_;  // cached-line count per frame, grown lazily
  std::uint64_t line_flushes_ = 0;
  std::uint64_t frame_flushes_ = 0;
  CacheConfig config_;
};

}  // namespace vusion

#endif  // VUSION_SRC_CACHE_LLC_H_
