#include "src/cache/eviction_set.h"

namespace vusion {

ColorEvictionSets::ColorEvictionSets(std::span<const FrameId> frames, const CacheConfig& config)
    : config_(config), sets_(config.page_colors()) {
  for (const FrameId f : frames) {
    auto& bucket = sets_[f % config_.page_colors()];
    if (bucket.size() < config_.ways) {
      bucket.push_back(f);
    }
  }
}

bool ColorEvictionSets::complete() const {
  for (const auto& bucket : sets_) {
    if (bucket.size() < config_.ways) {
      return false;
    }
  }
  return true;
}

SimTime ColorEvictionSets::Traverse(
    std::size_t color,
    const std::function<SimTime(FrameId frame, std::size_t offset)>& access) const {
  SimTime total = 0;
  for (const FrameId frame : sets_[color]) {
    for (std::size_t off = 0; off < kPageSize; off += config_.line_size) {
      total += access(frame, off);
    }
  }
  return total;
}

}  // namespace vusion
