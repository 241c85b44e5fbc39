// Deterministic pseudo-random number generation for the simulator.
//
// All randomness in the repository flows through Rng so that every experiment is
// reproducible from a single seed. The generator is xoshiro256++ seeded via
// SplitMix64, which is fast, well distributed, and has no global state.

#ifndef VUSION_SRC_SIM_RNG_H_
#define VUSION_SRC_SIM_RNG_H_

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace vusion {

// The two independent standard normals of one Box-Muller pair: r cos θ and
// r sin θ, with r = sqrt(-2 ln u1) and θ = 2π u2, for u1 in (0, 1) and u2 in
// [0, 1). This is the only place the transform is written, so every consumer
// of a gaussian stream (Rng::NextGaussian, the latency model's noise batch)
// computes bit-identical values from the same uniforms.
struct GaussianPair {
  double cos;
  double sin;
};
inline GaussianPair BoxMuller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  // sin and cos on the same angle compile to one sincos call.
  return {r * std::cos(theta), r * std::sin(theta)};
}

// xoshiro256++ PRNG. Not cryptographic; used only for simulation decisions.
//
// The generator core and the bounded, boolean, gaussian and log-normal draws
// are defined inline: the latency model draws noise on every charge and the
// workload loops draw several values per access, so these sit on hot paths
// where the cross-TU call overhead is measurable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform over the full 64-bit range.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Lemire's nearly-divisionless
  // method, with rejection for exact uniformity.
  std::uint64_t NextBelow(std::uint64_t bound) {
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        m = static_cast<__uint128_t>(Next()) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextDouble() < p;
  }

  // Standard normal via Box-Muller. The transform yields two independent
  // normals per uniform pair; the second is cached and returned by the next
  // call, so consecutive calls alternate between consuming two uniforms and
  // consuming none. Fork() does not inherit the cached spare.
  double NextGaussian() {
    if (has_spare_gaussian_) {
      has_spare_gaussian_ = false;
      return spare_gaussian_;
    }
    double u1 = 0.0;
    double u2 = 0.0;
    NextBoxMullerUniforms(u1, u2);
    const GaussianPair pair = BoxMuller(u1, u2);
    spare_gaussian_ = pair.sin;
    has_spare_gaussian_ = true;
    return pair.cos;
  }

  // The two uniforms NextGaussian transforms when it holds no spare: u1,
  // redrawn while zero (guarding log(0)), then u2. Callers that batch the
  // transform draw through this so the stream stays identical.
  void NextBoxMullerUniforms(double& u1, double& u2) {
    u1 = NextDouble();
    while (u1 <= 0.0) {
      u1 = NextDouble();
    }
    u2 = NextDouble();
  }
  [[nodiscard]] bool has_spare_gaussian() const { return has_spare_gaussian_; }

  // Log-normal with the given median and sigma of the underlying normal. Used by the
  // latency model for realistic timing noise.
  double NextLogNormal(double median, double sigma) {
    return median * std::exp(sigma * NextGaussian());
  }

  // Fisher-Yates shuffle of an index vector.
  void Shuffle(std::vector<std::uint32_t>& values);

  // Derives an independent child generator; convenient for giving each subsystem its
  // own stream so call-order changes in one subsystem do not perturb another.
  [[nodiscard]] Rng Fork();

  // Complete generator state for savestates: the xoshiro words plus the cached
  // Box-Muller spare (NextGaussian alternates between consuming two uniforms
  // and consuming none, so the spare is part of the deterministic stream).
  // Serialization goes through this pair instead of friending into internals.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double spare_gaussian = 0.0;
    bool has_spare_gaussian = false;
  };
  [[nodiscard]] State state() const {
    return State{{state_[0], state_[1], state_[2], state_[3]},
                 spare_gaussian_, has_spare_gaussian_};
  }
  void RestoreState(const State& state) {
    for (int i = 0; i < 4; ++i) {
      state_[i] = state.s[i];
    }
    spare_gaussian_ = state.spare_gaussian;
    has_spare_gaussian_ = state.has_spare_gaussian;
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace vusion

#endif  // VUSION_SRC_SIM_RNG_H_
