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

std::uint64_t CacheConfig::max_frames() const {
  // The tags below kNoKey << set_bits are exactly the ones keyed below kNoKey,
  // and frames [0, n) hold the tags below n << page_bits.
  const auto set_bits = static_cast<unsigned>(std::countr_zero(sets));
  const auto page_bits = static_cast<unsigned>(std::countr_zero(kPageSize / line_size));
  if (set_bits < page_bits) {
    return (std::uint64_t{Llc::kNoKey} << set_bits) >> page_bits;
  }
  const unsigned spare = set_bits - page_bits;
  return spare >= 32 ? ~std::uint64_t{0} : std::uint64_t{Llc::kNoKey} << spare;
}

Llc::Llc(const CacheConfig& config) : config_(config) {
  if (const char* error = config.GeometryError()) {
    throw std::invalid_argument(std::string("Llc: ") + error);
  }
  line_shift_ = std::countr_zero(config.line_size);
  set_shift_ = std::countr_zero(config.sets);
  set_mask_ = config.sets - 1;
  ways_ = config.ways;
  lines_per_page_shift_ = std::countr_zero(kPageSize / config.line_size);
}

void Llc::Fill(std::uint64_t tag) {
  if (keys_.empty()) {
    // First fill commits the arrays. Machines that never issue timed accesses
    // (common in large fleets) skip the 1.5 MB allocation entirely.
    keys_.assign(config_.sets * ways_ + kKeyPad, kNoKey);
    lru_.assign(config_.sets * ways_, 0);
  }
  const std::size_t base = SetBase(tag);
  const std::uint64_t* lru = lru_.data() + base;
  // An empty way's stamp is 0 and a valid way's is a distinct nonzero tick,
  // so the last way with the smallest stamp is the last empty way, or else
  // the oldest line: one branch-free pass over the set's stamps.
  std::size_t victim = 0;
  std::uint64_t oldest_stamp = ~std::uint64_t{0};
  for (std::size_t w = 0; w < ways_; ++w) {
    const bool older = lru[w] <= oldest_stamp;
    victim = older ? w : victim;
    oldest_stamp = older ? lru[w] : oldest_stamp;
  }
  if (keys_[base + victim] != kNoKey) {
    AdjustFrameLines(TagAt(static_cast<std::size_t>(tag & set_mask_), victim), -1);
  }
  keys_[base + victim] = KeyOf(tag);
  lru_[base + victim] = ++tick_;
  AdjustFrameLines(tag, +1);
  ++misses_;
}

void Llc::Flush(PhysAddr paddr) {
  if (keys_.empty()) {
    return;  // nothing has ever been cached
  }
  const std::uint64_t tag = paddr >> line_shift_;
  const std::size_t base = SetBase(tag);
  const std::size_t way = FindWay(base, KeyOf(tag));
  if (way != ways_) {
    keys_[base + way] = kNoKey;
    lru_[base + way] = 0;
    AdjustFrameLines(tag, -1);
    ++line_flushes_;
  }
}

void Llc::FlushFrame(FrameId frame) {
  // Freed and remapped frames almost never have cached lines; the exact counter
  // makes those calls O(1) and lets the probe sweep stop as soon as it drains.
  const std::size_t slot = frame - frame_lines_base_;
  if (slot >= frame_lines_.size() || frame_lines_[slot] == 0) {
    return;
  }
  ++frame_flushes_;
  const PhysAddr start = static_cast<PhysAddr>(frame) * kPageSize;
  for (std::size_t off = 0; off < kPageSize; off += config_.line_size) {
    Flush(start + off);
    if (frame_lines_[slot] == 0) {
      return;
    }
  }
}

bool Llc::Contains(PhysAddr paddr) const {
  if (keys_.empty()) {
    return false;
  }
  const std::uint64_t tag = paddr >> line_shift_;
  return FindWay(SetBase(tag), KeyOf(tag)) != ways_;
}

std::size_t Llc::GrowFrameLines(std::size_t frame) {
  if (frame_lines_.empty()) {
    frame_lines_base_ = frame;
  } else if (frame < frame_lines_base_) {
    // Grow downwards by at least the current span, so a descending run of
    // frames costs amortized O(1) per frame like the upward growth.
    const std::size_t grow =
        std::min(frame_lines_base_, std::max(frame_lines_base_ - frame, frame_lines_.size()));
    frame_lines_.insert(frame_lines_.begin(), grow, 0);
    frame_lines_base_ -= grow;
  }
  const std::size_t slot = frame - frame_lines_base_;
  if (slot >= frame_lines_.size()) {
    frame_lines_.resize(slot + 1, 0);
  }
  return slot;
}

bool Llc::ValidateFrameLineCounters() const {
  std::vector<std::uint16_t> recomputed(frame_lines_.size(), 0);
  const std::size_t sets = keys_.empty() ? 0 : config_.sets;
  for (std::size_t set = 0; set < sets; ++set) {
    for (std::size_t w = 0; w < ways_; ++w) {
      if (keys_[set * ways_ + w] == kNoKey) {
        continue;
      }
      const std::size_t slot = FrameOfTag(TagAt(set, w)) - frame_lines_base_;
      if (slot >= recomputed.size()) {
        // A valid line for a frame the incremental counter never saw:
        // impossible unless the accounting broke.
        return false;
      }
      ++recomputed[slot];
    }
  }
  return recomputed == frame_lines_;
}

std::size_t Llc::resident_bytes() const {
  return keys_.capacity() * sizeof(std::uint32_t) + lru_.capacity() * sizeof(std::uint64_t) +
         frame_lines_.capacity() * sizeof(std::uint16_t);
}

std::size_t Llc::ColorOf(FrameId frame) const { return frame % config_.page_colors(); }

std::size_t Llc::SetIndexOf(PhysAddr paddr) const {
  return static_cast<std::size_t>((paddr >> line_shift_) & set_mask_);
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

// The image holds full tags, exactly as when ways stored them, so it does not
// depend on how a set keys its lines.
void Llc::SaveState(snapshot::SnapshotWriter& w) const {
  const std::size_t sets = keys_.empty() ? 0 : config_.sets;
  std::uint64_t valid = 0;
  for (std::size_t i = 0; i < sets * ways_; ++i) {
    valid += keys_[i] != kNoKey ? 1 : 0;
  }
  w.Bool(!keys_.empty());
  w.U64(valid);
  for (std::size_t set = 0; set < sets; ++set) {
    for (std::size_t way = 0; way < ways_; ++way) {
      const std::size_t i = set * ways_ + way;
      if (keys_[i] != kNoKey) {
        w.U64(i);
        w.U64(TagAt(set, way));
        w.U64(lru_[i]);
      }
    }
  }
  w.U64(tick_);
  w.U64(hits_);
  w.U64(misses_);
  w.U64(line_flushes_);
  w.U64(frame_flushes_);
}

void Llc::RestoreState(snapshot::SnapshotReader& r, std::size_t frame_count) {
  keys_.clear();
  lru_.clear();
  frame_lines_.clear();
  const bool committed = r.Bool();
  const std::uint64_t valid = r.Count(24);
  if (committed) {
    keys_.assign(config_.sets * ways_ + kKeyPad, kNoKey);
    lru_.assign(config_.sets * ways_, 0);
  }
  const std::size_t lines = lru_.size();
  for (std::uint64_t i = 0; i < valid; ++i) {
    const std::uint64_t index = r.U64();
    if (index >= lines) {
      throw snapshot::RestoreError("cache", "line index out of range");
    }
    const std::uint64_t tag = r.U64();
    const std::uint64_t stamp = r.U64();
    // Every line must be one Access could have filled: a real tag of a frame
    // the machine has, keyed below the empty-way sentinel, in the set its
    // index names, in a way not already taken, not repeated within the set,
    // and stamped with a tick — anything else would break the hit scan, the
    // victim choice (stamp 0 marks an empty way) and the frame counters
    // (which a far-out frame would also grow to its number). The full tag is
    // checked before it is narrowed to a key.
    if (FrameOfTag(tag) >= frame_count) {
      throw snapshot::RestoreError("cache", "line tag names a frame past physical memory");
    }
    if ((tag >> set_shift_) >= kNoKey) {
      throw snapshot::RestoreError("cache", "line tag has no key below the empty-way key");
    }
    const std::size_t base = static_cast<std::size_t>(index - index % ways_);
    if (SetBase(tag) != base) {
      throw snapshot::RestoreError("cache", "line tag does not map to its set");
    }
    if (FindWay(base, KeyOf(tag)) != ways_) {
      throw snapshot::RestoreError("cache", "duplicate tag within a set");
    }
    if (keys_[index] != kNoKey) {
      throw snapshot::RestoreError("cache", "line index repeated");
    }
    if (stamp == 0) {
      throw snapshot::RestoreError("cache", "line stamp is zero");
    }
    keys_[index] = KeyOf(tag);
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
