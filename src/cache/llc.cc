#include "src/cache/llc.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace vusion {

const char* CacheConfig::GeometryError() const {
  if (!std::has_single_bit(line_size)) {
    return "line_size must be a power of two";
  }
  if (line_size > kPageSize) {
    return "line_size must not exceed the page size";
  }
  if (!std::has_single_bit(sets)) {
    return "sets must be a power of two";
  }
  if (ways == 0) {
    return "ways must be nonzero";
  }
  return nullptr;
}

Llc::Llc(const CacheConfig& config) : config_(config) {
  if (const char* error = config.GeometryError()) {
    throw std::invalid_argument(std::string("Llc: ") + error);
  }
  line_shift_ = std::countr_zero(config.line_size);
  set_mask_ = config.sets - 1;
  ways_ = config.ways;
  lines_per_page_shift_ = std::countr_zero(kPageSize / config.line_size);
}

void Llc::Fill(std::uint64_t tag) {
  if (tags_.empty()) {
    // First fill commits the arrays. Machines that never issue timed accesses
    // (common in large fleets) skip the 2 MB allocation entirely.
    tags_.assign(config_.sets * ways_, kNoTag);
    lru_.assign(config_.sets * ways_, 0);
  }
  const std::size_t base = SetBase(tag);
  std::uint64_t* tags = tags_.data() + base;
  std::uint64_t* lru = lru_.data() + base;
  // One branch-free pass picks the victim: the last empty way, or else the
  // first way with the smallest stamp. Empty ways' stale stamps take part in
  // the minimum, but the minimum is only used when no way is empty.
  std::size_t empty = ways_;
  std::size_t oldest = 0;
  std::uint64_t oldest_stamp = ~std::uint64_t{0};
  for (std::size_t w = 0; w < ways_; ++w) {
    empty = tags[w] == kNoTag ? w : empty;
    const bool older = lru[w] < oldest_stamp;
    oldest = older ? w : oldest;
    oldest_stamp = older ? lru[w] : oldest_stamp;
  }
  const std::size_t victim = empty != ways_ ? empty : oldest;
  if (tags[victim] != kNoTag) {
    AdjustFrameLines(tags[victim], -1);
  }
  tags[victim] = tag;
  lru[victim] = ++tick_;
  AdjustFrameLines(tag, +1);
  ++misses_;
}

void Llc::Flush(PhysAddr paddr) {
  if (tags_.empty()) {
    return;  // nothing has ever been cached
  }
  const std::uint64_t tag = paddr >> line_shift_;
  std::uint64_t* tags = tags_.data() + SetBase(tag);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] == tag) {
      tags[w] = kNoTag;
      AdjustFrameLines(tag, -1);
      ++line_flushes_;
      return;
    }
  }
}

void Llc::FlushFrame(FrameId frame) {
  // Freed and remapped frames almost never have cached lines; the exact counter
  // makes those calls O(1) and lets the probe sweep stop as soon as it drains.
  if (frame >= frame_lines_.size() || frame_lines_[frame] == 0) {
    return;
  }
  ++frame_flushes_;
  const PhysAddr start = static_cast<PhysAddr>(frame) * kPageSize;
  for (std::size_t off = 0; off < kPageSize; off += config_.line_size) {
    Flush(start + off);
    if (frame_lines_[frame] == 0) {
      return;
    }
  }
}

bool Llc::Contains(PhysAddr paddr) const {
  if (tags_.empty()) {
    return false;
  }
  const std::uint64_t tag = paddr >> line_shift_;
  const std::uint64_t* tags = tags_.data() + SetBase(tag);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] == tag) {
      return true;
    }
  }
  return false;
}

bool Llc::ValidateFrameLineCounters() const {
  std::vector<std::uint16_t> recomputed(frame_lines_.size(), 0);
  for (const std::uint64_t tag : tags_) {
    if (tag == kNoTag) {
      continue;
    }
    const std::size_t frame = FrameOfTag(tag);
    if (frame >= recomputed.size()) {
      // A valid line for a frame the incremental counter never saw: impossible
      // unless the accounting broke.
      return false;
    }
    ++recomputed[frame];
  }
  return recomputed == frame_lines_;
}

std::size_t Llc::resident_bytes() const {
  return (tags_.capacity() + lru_.capacity()) * sizeof(std::uint64_t) +
         frame_lines_.capacity() * sizeof(std::uint16_t);
}

std::size_t Llc::ColorOf(FrameId frame) const { return frame % config_.page_colors(); }

std::size_t Llc::SetIndexOf(PhysAddr paddr) const {
  return static_cast<std::size_t>((paddr >> line_shift_) & set_mask_);
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void Llc::SaveState(snapshot::SnapshotWriter& w) const {
  std::uint64_t valid = 0;
  for (const std::uint64_t tag : tags_) {
    valid += tag != kNoTag ? 1 : 0;
  }
  w.Bool(!tags_.empty());
  w.U64(valid);
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kNoTag) {
      w.U64(i);
      w.U64(tags_[i]);
      w.U64(lru_[i]);
    }
  }
  w.U64(tick_);
  w.U64(hits_);
  w.U64(misses_);
  w.U64(line_flushes_);
  w.U64(frame_flushes_);
}

void Llc::RestoreState(snapshot::SnapshotReader& r, std::size_t frame_count) {
  tags_.clear();
  lru_.clear();
  frame_lines_.clear();
  const bool committed = r.Bool();
  const std::uint64_t valid = r.Count(24);
  if (committed) {
    tags_.assign(config_.sets * ways_, kNoTag);
    lru_.assign(config_.sets * ways_, 0);
  }
  for (std::uint64_t i = 0; i < valid; ++i) {
    const std::uint64_t index = r.U64();
    if (index >= tags_.size()) {
      throw snapshot::RestoreError("cache", "line index out of range");
    }
    const std::uint64_t tag = r.U64();
    const std::uint64_t stamp = r.U64();
    // Every line must be one Access could have filled: a real tag of a frame
    // the machine has, in the set its index names, in a way not already
    // taken, and not repeated within the set — anything else would break the
    // hit scan and the frame counters (which a far-out frame would also grow
    // to its number).
    if (tag == kNoTag) {
      throw snapshot::RestoreError("cache", "line holds the empty-way tag");
    }
    if (FrameOfTag(tag) >= frame_count) {
      throw snapshot::RestoreError("cache", "line tag names a frame past physical memory");
    }
    const std::size_t base = static_cast<std::size_t>(index - index % ways_);
    if (SetBase(tag) != base) {
      throw snapshot::RestoreError("cache", "line tag does not map to its set");
    }
    for (std::size_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag) {
        throw snapshot::RestoreError("cache", "duplicate tag within a set");
      }
    }
    if (tags_[index] != kNoTag) {
      throw snapshot::RestoreError("cache", "line index repeated");
    }
    tags_[index] = tag;
    lru_[index] = stamp;
    AdjustFrameLines(tag, +1);
  }
  tick_ = r.U64();
  hits_ = r.U64();
  misses_ = r.U64();
  line_flushes_ = r.U64();
  frame_flushes_ = r.U64();
}

}  // namespace vusion
