#include "src/sim/rng.h"

#include <cmath>
#include <numbers>

namespace vusion {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

std::uint64_t Rng::NextInRange(std::uint64_t lo, std::uint64_t hi) {
  return lo + NextBelow(hi - lo + 1);
}

void Rng::Shuffle(std::vector<std::uint32_t>& values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = NextBelow(i);
    std::swap(values[i - 1], values[j]);
  }
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace vusion
