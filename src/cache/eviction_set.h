// Attacker-side eviction-set machinery for PRIME+PROBE at page-color granularity
// (§5.1 "Page color changes"). An eviction set for color C is `ways` attacker pages
// whose frames share color C; accessing all of their lines evicts every other line
// from the 64 cache sets that color-C pages cover.

#ifndef VUSION_SRC_CACHE_EVICTION_SET_H_
#define VUSION_SRC_CACHE_EVICTION_SET_H_

#include <functional>
#include <span>
#include <vector>

#include "src/cache/llc.h"

namespace vusion {

class ColorEvictionSets {
 public:
  // Groups the attacker's frames by color. The attacker in the real attack learns
  // colors by timing; here grouping uses the geometry directly (the timing procedure
  // is demonstrated separately in the page-color attack's calibration phase).
  ColorEvictionSets(std::span<const FrameId> frames, const CacheConfig& config);

  // True if every color has at least `ways` frames (a complete eviction set).
  [[nodiscard]] bool complete() const;

  [[nodiscard]] std::size_t colors() const { return sets_.size(); }
  [[nodiscard]] const std::vector<FrameId>& frames_for(std::size_t color) const {
    return sets_[color];
  }

  // Accesses all lines of the eviction set for `color` through the provided access
  // function (which should go through the simulated memory hierarchy so it both
  // perturbs the cache and accrues time). Returns the summed reported latency.
  SimTime Traverse(std::size_t color,
                   const std::function<SimTime(FrameId frame, std::size_t offset)>& access) const;

 private:
  CacheConfig config_;
  std::vector<std::vector<FrameId>> sets_;  // per color, capped at `ways` frames
};

}  // namespace vusion

#endif  // VUSION_SRC_CACHE_EVICTION_SET_H_
