#include "src/sim/latency_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>

#if defined(__x86_64__) && !defined(VUSION_DISABLE_AVX2)
#define VUSION_HAVE_AVX2 1
#endif

namespace vusion {

namespace {

using F64x4 = double __attribute__((vector_size(32)));
using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using I64x4 = std::int64_t __attribute__((vector_size(32)));

// Approximates the 64 noise factors of a batch of 32 Box-Muller pairs:
// factor[2j] = exp(sigma * r cos θ) and factor[2j + 1] = exp(sigma * r sin θ),
// with r = sqrt(-2 ln u1[j]) and θ = 2π u2[j], four pairs per iteration and no
// branch. Each function is range-reduced to a short polynomial: log and
// sin/cos use the classic fdlibm kernels, exp fdlibm's rational form. The
// error budget at LatencyModel::kNoiseGuard bounds how far this is from libm.
// Vectors are reinterpreted with __builtin_bit_cast, never returned from a
// helper (a 32-byte vector return changes the ABI without AVX: -Wpsabi).
[[gnu::always_inline]] inline void NoiseKernelBody(const double* u1, const double* u2,
                                                   double sigma, double* factor) {
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  constexpr double kP1 = 1.66666666666666019037e-01;
  constexpr double kP2 = -2.77777777770155933842e-03;
  constexpr double kP3 = 6.61375632143793436117e-05;
  constexpr double kP4 = -1.65339022054652515390e-06;
  constexpr double kP5 = 4.13813679705723846039e-08;
  // ln 2 split so that k * kLn2Hi is exact for the |k| < 2^20 reached here.
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  // Adding then subtracting 1.5 * 2^52 rounds to the nearest integer, which
  // the sum then also holds in its low mantissa bits.
  constexpr double kRoundInt = 0x1.8p52;

  for (int j = 0; j < LatencyModel::kNoisePairs; j += 4) {
    F64x4 a;
    F64x4 b;
    std::memcpy(&a, u1 + j, sizeof a);
    std::memcpy(&b, u2 + j, sizeof b);

    // r = sqrt(-2 ln a). Write a = m * 2^k with m in [sqrt(2)/2, sqrt(2)):
    // shifting the mantissa by the bits of sqrt(2)/2 carries into the
    // exponent exactly when m would reach sqrt(2).
    U64x4 bits = __builtin_bit_cast(U64x4, a) + (0x3ff0000000000000ULL - 0x3fe6a09e00000000ULL);
    const F64x4 k =
        __builtin_bit_cast(F64x4, (bits >> 52) | 0x4330000000000000ULL) - (0x1p52 + 1023.0);
    bits = (bits & 0x000fffffffffffffULL) + 0x3fe6a09e00000000ULL;
    const F64x4 f = __builtin_bit_cast(F64x4, bits) - 1.0;
    const F64x4 hfsq = 0.5 * f * f;
    const F64x4 s = f / (2.0 + f);
    const F64x4 z = s * s;
    const F64x4 w = z * z;
    const F64x4 poly = w * (kLg2 + w * (kLg4 + w * kLg6)) +
                       z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const F64x4 log_a = s * (hfsq + poly) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
    const F64x4 r2 = -2.0 * log_a;
    F64x4 r;
    for (int lane = 0; lane < 4; ++lane) {
      r[lane] = std::sqrt(r2[lane]);  // one vector sqrt (no errno: see CMake)
    }

    // sin and cos of θ = 2π b. 4b = n + d exactly, with n the nearest integer
    // and |d| <= 1/2, so θ = n π/2 + y with y = d π/2 in [-π/4, π/4]; the
    // quadrant n mod 4 swaps and negates the two kernels' results.
    const F64x4 q = 4.0 * b;
    const F64x4 q_round = q + kRoundInt;
    const U64x4 quadrant = __builtin_bit_cast(U64x4, q_round);
    const F64x4 y = (q - (q_round - kRoundInt)) * (std::numbers::pi / 2);
    const F64x4 yy = y * y;
    const F64x4 sin_y =
        y + yy * y * (kS1 + yy * (kS2 + yy * (kS3 + yy * (kS4 + yy * (kS5 + yy * kS6)))));
    const F64x4 yyyy = yy * yy;
    const F64x4 cos_poly =
        yy * (kC1 + yy * (kC2 + yy * kC3)) + yyyy * yyyy * (kC4 + yy * (kC5 + yy * kC6));
    const F64x4 half_yy = 0.5 * yy;
    const F64x4 one_minus = 1.0 - half_yy;
    const F64x4 cos_y = one_minus + (((1.0 - one_minus) - half_yy) + yy * cos_poly);
    const U64x4 swap = -(quadrant & 1);
    const U64x4 sin_bits = __builtin_bit_cast(U64x4, sin_y);
    const U64x4 cos_bits = __builtin_bit_cast(U64x4, cos_y);
    const F64x4 sin_t = __builtin_bit_cast(
        F64x4, ((cos_bits & swap) | (sin_bits & ~swap)) ^ ((quadrant & 2) << 62));
    const F64x4 cos_t = __builtin_bit_cast(
        F64x4, ((sin_bits & swap) | (cos_bits & ~swap)) ^ (((quadrant + 1) & 2) << 62));

    // exp(x) for x = sigma * g: x = k ln 2 + t with |t| <= ln(2)/2, then
    // exp(t) = 1 + t + t c / (2 - c), scaled by 2^k in the exponent field.
    F64x4 e[2];
    const F64x4 xs[2] = {sigma * (r * cos_t), sigma * (r * sin_t)};
    for (int h = 0; h < 2; ++h) {
      const F64x4 x = xs[h];
      const F64x4 k_round = x * kInvLn2 + kRoundInt;
      const F64x4 kx = k_round - kRoundInt;
      const F64x4 hi = x - kx * kLn2Hi;
      const F64x4 lo = kx * kLn2Lo;
      const F64x4 t = hi - lo;
      const F64x4 tt = t * t;
      const F64x4 c = t - tt * (kP1 + tt * (kP2 + tt * (kP3 + tt * (kP4 + tt * kP5))));
      const F64x4 exp_t = 1.0 + (t * c / (2.0 - c) - lo + hi);
      e[h] = __builtin_bit_cast(F64x4, __builtin_bit_cast(U64x4, exp_t) +
                                           (__builtin_bit_cast(U64x4, k_round) << 52));
    }
    const F64x4 first = __builtin_shuffle(e[0], e[1], I64x4{0, 4, 1, 5});
    const F64x4 second = __builtin_shuffle(e[0], e[1], I64x4{2, 6, 3, 7});
    std::memcpy(factor + 2 * j, &first, sizeof first);
    std::memcpy(factor + 2 * j + 4, &second, sizeof second);
  }
}

using NoiseKernel = void (*)(const double*, const double*, double, double*);

void NoiseKernelBaseline(const double* u1, const double* u2, double sigma, double* factor) {
  NoiseKernelBody(u1, u2, sigma, factor);
}

#if VUSION_HAVE_AVX2
[[gnu::target("avx2,fma")]] void NoiseKernelAvx2(const double* u1, const double* u2,
                                                 double sigma, double* factor) {
  NoiseKernelBody(u1, u2, sigma, factor);
}
#endif

NoiseKernel SelectNoiseKernel() {
#if VUSION_HAVE_AVX2
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return NoiseKernelAvx2;
  }
#endif
  return NoiseKernelBaseline;
}

}  // namespace

LatencyModel::LatencyModel(const LatencyConfig& config, VirtualClock& clock, Rng noise_rng)
    : config_(config), clock_(&clock), rng_(noise_rng) {}

double LatencyModel::ExactGaussian(int i) const {
  if (!fast_batch()) {
    return gauss_[i];
  }
  const GaussianPair pair = BoxMuller(u1_[i / 2], u2_[i / 2]);
  return i % 2 == 0 ? pair.cos : pair.sin;
}

SimTime LatencyModel::ExactNoisyCost(SimTime base, int i) const {
  const double sigma = config_.noise_sigma;
  const double factor = !fast_batch() && sigma == factor_sigma_
                            ? factor_[i]
                            : std::exp(sigma * ExactGaussian(i));
  const double noisy = static_cast<double>(base) * factor;
  // llround without the libm call below 2^51: there `noisy + 0.5` is exact
  // (spacing <= 0.5), so truncating it is exactly round-half-away-from-zero —
  // except inside [0.5 - eps, 0.5), where the sum can round up across 1.0;
  // both sides of that difference land in the clamp below.
  const SimTime cost = noisy < 0x1p51 ? static_cast<SimTime>(noisy + 0.5)
                                      : static_cast<SimTime>(std::llround(noisy));
  return cost == 0 ? 1 : cost;
}

void LatencyModel::RefillNoise() {
  const double sigma = config_.noise_sigma;
  factor_sigma_ = sigma;
  noise_pos_ = 0;
  if (rng_.has_spare_gaussian() || sigma > kMaxFastSigma) {
    // An exact batch: a pending spare puts the batch off the Box-Muller pair
    // boundaries, and beyond kMaxFastSigma the kernel's exp could overflow.
    for (int i = 0; i < kNoiseBatch; ++i) {
      gauss_[i] = rng_.NextGaussian();
    }
    for (int i = 0; i < kNoiseBatch; ++i) {
      factor_[i] = std::exp(sigma * gauss_[i]);
    }
    fast_sigma_ = std::numeric_limits<double>::quiet_NaN();
    unit_sigma_ = fast_sigma_;
    return;
  }
  for (int j = 0; j < kNoisePairs; ++j) {
    rng_.NextBoxMullerUniforms(u1_[j], u2_[j]);
  }
  static const NoiseKernel kernel = SelectNoiseKernel();
  kernel(u1_, u2_, sigma, approx_);
  fast_sigma_ = sigma;
  unit_sigma_ = std::exp(sigma * kMaxAbsGaussian) < 1.5
                    ? sigma
                    : std::numeric_limits<double>::quiet_NaN();
}

LatencyModel::NoiseCacheState LatencyModel::noise_cache_state() const {
  NoiseCacheState s;
  for (int i = 0; i < kNoiseBatch; ++i) {
    s.gauss[i] = ExactGaussian(i);
    s.factor[i] = fast_batch() ? std::exp(factor_sigma_ * s.gauss[i]) : factor_[i];
  }
  s.factor_sigma = factor_sigma_;
  s.noise_pos = noise_pos_;
  return s;
}

Rng::State LatencyModel::noise_rng_state() const {
  Rng::State s = rng_.state();
  if (fast_batch()) {
    // NextGaussian would have left the batch's last gaussian as the stale,
    // unflagged spare.
    s.spare_gaussian = ExactGaussian(kNoiseBatch - 1);
  }
  return s;
}

void LatencyModel::RestoreNoiseState(const Rng::State& rng, const NoiseCacheState& cache) {
  rng_.RestoreState(rng);
  for (int i = 0; i < kNoiseBatch; ++i) {
    gauss_[i] = cache.gauss[i];
    factor_[i] = cache.factor[i];
  }
  factor_sigma_ = cache.factor_sigma;
  noise_pos_ = cache.noise_pos;
  fast_sigma_ = std::numeric_limits<double>::quiet_NaN();
  unit_sigma_ = fast_sigma_;
}

const char* LatencyModel::NoiseCacheState::Damage() const {
  if (noise_pos < 0 || noise_pos > kNoiseBatch) {
    return "noise cursor out of range";
  }
  if (noise_pos == kNoiseBatch) {
    return nullptr;  // spent: refilled before its next draw
  }
  for (int i = 0; i < kNoiseBatch; ++i) {
    if (!std::isfinite(gauss[i])) {
      return "non-finite noise gaussian";
    }
    if (std::bit_cast<std::uint64_t>(factor[i]) !=
        std::bit_cast<std::uint64_t>(std::exp(factor_sigma * gauss[i]))) {
      return "noise factor does not match its gaussian";
    }
  }
  return nullptr;
}

}  // namespace vusion
