#include "src/sim/latency_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace vusion {
namespace {

constexpr int kBatch = LatencyModel::kNoiseBatch;

// The always-libm noise batch the vectorized kernel replaced, kept as the
// reference it must reproduce bit for bit: a refill draws 64 gaussians through
// NextGaussian and their factors through std::exp, and a charge rounds
// base * factor like llround, clamped to at least 1. Copyable, so a test can
// fork it wherever it forks the model.
class ReferenceNoise {
 public:
  explicit ReferenceNoise(Rng rng) : rng_(rng) {}

  SimTime Charge(SimTime base, double sigma) {
    if (!(sigma > 0.0 && base > 0)) {
      return base;
    }
    const double factor = PeekFactor(sigma);
    ++cache_.noise_pos;
    const double noisy = static_cast<double>(base) * factor;
    const SimTime cost = noisy < 0x1p51 ? static_cast<SimTime>(noisy + 0.5)
                                        : static_cast<SimTime>(std::llround(noisy));
    return cost == 0 ? 1 : cost;
  }

  // The factor the next charge under `sigma` applies (refilling first, as
  // that charge would).
  double PeekFactor(double sigma) {
    if (cache_.noise_pos == kBatch) {
      for (double& g : cache_.gauss) {
        g = rng_.NextGaussian();
      }
      for (int i = 0; i < kBatch; ++i) {
        cache_.factor[i] = std::exp(sigma * cache_.gauss[i]);
      }
      cache_.factor_sigma = sigma;
      cache_.noise_pos = 0;
    }
    const int i = cache_.noise_pos;
    return sigma == cache_.factor_sigma ? cache_.factor[i] : std::exp(sigma * cache_.gauss[i]);
  }

  [[nodiscard]] const LatencyModel::NoiseCacheState& cache() const { return cache_; }
  [[nodiscard]] Rng::State rng_state() const { return rng_.state(); }

 private:
  Rng rng_;
  LatencyModel::NoiseCacheState cache_;
};

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Names the first field where the model's reported noise state (batch and
// noise stream, stale Box-Muller spare included) differs from the
// reference's, bit for bit; empty when they match.
std::string NoiseStateDiff(const LatencyModel& model, const ReferenceNoise& ref) {
  const LatencyModel::NoiseCacheState got = model.noise_cache_state();
  const LatencyModel::NoiseCacheState& want = ref.cache();
  for (int i = 0; i < kBatch; ++i) {
    if (Bits(got.gauss[i]) != Bits(want.gauss[i])) {
      return "gauss[" + std::to_string(i) + "]";
    }
    if (Bits(got.factor[i]) != Bits(want.factor[i])) {
      return "factor[" + std::to_string(i) + "]";
    }
  }
  if (Bits(got.factor_sigma) != Bits(want.factor_sigma)) {
    return "factor_sigma";
  }
  if (got.noise_pos != want.noise_pos) {
    return "noise_pos";
  }
  const Rng::State got_rng = model.noise_rng_state();
  const Rng::State want_rng = ref.rng_state();
  for (int w = 0; w < 4; ++w) {
    if (got_rng.s[w] != want_rng.s[w]) {
      return "rng word " + std::to_string(w);
    }
  }
  if (Bits(got_rng.spare_gaussian) != Bits(want_rng.spare_gaussian)) {
    return "stale spare";
  }
  if (got_rng.has_spare_gaussian != want_rng.has_spare_gaussian) {
    return "spare flag";
  }
  return "";
}

TEST(LatencyModelTest, ChargeAdvancesClock) {
  VirtualClock clock;
  LatencyConfig config;
  config.noise_sigma = 0.0;
  LatencyModel model(config, clock, Rng(1));
  const SimTime charged = model.Charge(100);
  EXPECT_EQ(charged, 100u);
  EXPECT_EQ(clock.now(), 100u);
}

TEST(LatencyModelTest, ChargeExactIgnoresNoise) {
  VirtualClock clock;
  LatencyConfig config;
  config.noise_sigma = 0.5;
  LatencyModel model(config, clock, Rng(2));
  EXPECT_EQ(model.ChargeExact(1000), 1000u);
  EXPECT_EQ(clock.now(), 1000u);
}

TEST(LatencyModelTest, NoiseStaysNearBase) {
  VirtualClock clock;
  LatencyConfig config;
  config.noise_sigma = 0.04;
  LatencyModel model(config, clock, Rng(3));
  double total = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const SimTime c = model.Charge(1000);
    EXPECT_GT(c, 700u);
    EXPECT_LT(c, 1400u);
    total += static_cast<double>(c);
  }
  EXPECT_NEAR(total / n, 1000.0, 15.0);
}

TEST(LatencyModelTest, ZeroChargeIsFree) {
  VirtualClock clock;
  LatencyModel model(LatencyConfig{}, clock, Rng(4));
  EXPECT_EQ(model.Charge(0), 0u);
  EXPECT_EQ(clock.now(), 0u);
}

// One operation of a differential stream: a charge of `base` under `sigma`,
// or a ChargeExact.
struct NoiseOp {
  SimTime base;
  double sigma;
  bool exact;
};

// A seeded stream over the access path's and the kernel paths' bases, with an
// occasional ChargeExact and, now and then, a mid-batch switch to another
// sigma or to 0 (which draws nothing). The large bases probe the guard: at
// 2^28 it spans a quarter unit, so a kernel error beyond it would show, and
// from 2^29 up every charge takes the exact path.
std::vector<NoiseOp> NoiseStream(std::uint64_t seed, double sigma, std::size_t n) {
  constexpr SimTime kBases[] = {0,    1,     4,    14,   60,    110,
                                350,  600,   950,  1400, 12000, SimTime{1} << 20,
                                SimTime{1} << 28, SimTime{1} << 45};
  constexpr double kSigmas[] = {0.0, 0.01, 0.04, 0.047, 0.048, 0.1, 0.5, 2.0};
  Rng rng(seed);
  std::vector<NoiseOp> ops;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextBelow(24) == 0) {
      sigma = kSigmas[rng.NextBelow(std::size(kSigmas))];
    }
    ops.push_back({kBases[rng.NextBelow(std::size(kBases))], sigma, rng.NextBelow(8) == 0});
  }
  return ops;
}

SimTime Apply(LatencyModel& model, const NoiseOp& op) {
  model.mutable_config().noise_sigma = op.sigma;
  return op.exact ? model.ChargeExact(op.base) : model.Charge(op.base);
}

SimTime Apply(ReferenceNoise& ref, const NoiseOp& op) {
  return op.exact ? op.base : ref.Charge(op.base, op.sigma);
}

// The fast kernel against the always-libm reference: at every position of
// seeded streams (every sigma, a noise stream with and without a pending
// Box-Muller spare) each cost, the clock, the reported batch and the noise
// stream state match bit for bit; and the state restored into another model
// at that position carries on exactly like the reference.
TEST(LatencyModelTest, FastNoiseMatchesLibmReferenceBitForBit) {
  constexpr std::size_t kOps = 200;
  constexpr std::size_t kContinue = kBatch + 6;  // crosses the next refill
  std::uint64_t seed = 0;
  for (const double sigma : {0.01, 0.04, 0.047, 0.048, 0.1, 0.5, 2.0}) {
    for (const bool spare : {false, true}) {
      ++seed;
      SCOPED_TRACE("sigma " + std::to_string(sigma) + (spare ? " spare" : ""));
      const std::vector<NoiseOp> ops = NoiseStream(seed, sigma, kOps + kContinue);
      Rng noise_rng(1000 + seed);
      if (spare) {
        noise_rng.NextGaussian();  // leaves a spare: batches straddle pairs
      }
      LatencyConfig config;
      config.noise_sigma = sigma;
      VirtualClock clock;
      LatencyModel model(config, clock, noise_rng);
      ReferenceNoise ref(noise_rng);
      SimTime ref_now = 0;
      for (std::size_t n = 0; n < kOps; ++n) {
        const SimTime cost = Apply(model, ops[n]);
        ASSERT_EQ(cost, Apply(ref, ops[n])) << "op " << n;
        ref_now += cost;
        ASSERT_EQ(clock.now(), ref_now) << "op " << n;
        ASSERT_EQ(NoiseStateDiff(model, ref), "") << "op " << n;

        // Restore over a model holding a fast batch of its own.
        VirtualClock fresh_clock;
        LatencyModel fresh(config, fresh_clock, Rng(7));
        fresh.Charge(100);
        fresh.RestoreNoiseState(model.noise_rng_state(), model.noise_cache_state());
        ASSERT_EQ(NoiseStateDiff(fresh, ref), "") << "restored at op " << n;
        ReferenceNoise forked = ref;
        for (std::size_t k = n + 1; k <= n + kContinue; ++k) {
          ASSERT_EQ(Apply(fresh, ops[k]), Apply(forked, ops[k]))
              << "restored at op " << n << ", op " << k;
        }
        ASSERT_EQ(NoiseStateDiff(fresh, forked), "") << "restored at op " << n;
      }
    }
  }
}

// Under a fast batch whose sigma has exp(sigma * kMaxAbsGaussian) < 1.5, a
// 1 ns charge costs 1 without reading its factor. Base 1 at the edge of that
// bound (0.047 inside, 0.048 outside) and after mid-batch sigma changes
// across it and far past it must match the always-libm reference, with the
// draw spent and the clock advanced, at every position.
TEST(LatencyModelTest, UnitChargesMatchReferenceAcrossTheBound) {
  EXPECT_LT(std::sqrt(-2.0 * std::log(0x1p-53)), LatencyModel::kMaxAbsGaussian);
  EXPECT_LT(std::exp(0.047 * LatencyModel::kMaxAbsGaussian), 1.5);
  EXPECT_GT(std::exp(0.048 * LatencyModel::kMaxAbsGaussian), 1.5);
  constexpr double kSwitchTo[] = {0.04, 0.047, 0.048, 0.5, 2.0};
  constexpr SimTime kOtherBases[] = {2, 4, 14, 110};
  for (const double sigma : {0.047, 0.048}) {
    SCOPED_TRACE("sigma " + std::to_string(sigma));
    Rng ops(sigma < 0.0475 ? 31 : 32);
    LatencyConfig config;
    config.noise_sigma = sigma;
    VirtualClock clock;
    LatencyModel model(config, clock, Rng(77));
    ReferenceNoise ref(Rng(77));
    SimTime ref_now = 0;
    double current = sigma;
    for (int n = 0; n < 20 * kBatch; ++n) {
      // Mostly the batch's own sigma; now and then a switch mid-batch.
      if (n % kBatch == 40) {
        current = kSwitchTo[ops.NextBelow(std::size(kSwitchTo))];
      } else if (n % kBatch == 52) {
        current = sigma;
      }
      const SimTime base =
          ops.NextBelow(4) != 0 ? 1 : kOtherBases[ops.NextBelow(std::size(kOtherBases))];
      model.mutable_config().noise_sigma = current;
      const SimTime cost = model.Charge(base);
      ASSERT_EQ(cost, ref.Charge(base, current)) << "op " << n;
      ref_now += cost;
      ASSERT_EQ(clock.now(), ref_now) << "op " << n;
      ASSERT_EQ(NoiseStateDiff(model, ref), "") << "op " << n;
    }
  }
}

// Sigmas beyond the kernel's range draw exact batches, still bit-identical.
TEST(LatencyModelTest, SigmaBeyondKernelRangeMatchesReference) {
  LatencyConfig config;
  config.noise_sigma = 2 * LatencyModel::kMaxFastSigma;
  VirtualClock clock;
  LatencyModel model(config, clock, Rng(11));
  ReferenceNoise ref(Rng(11));
  for (int n = 0; n < 3 * kBatch; ++n) {
    const SimTime base = n % 2 == 0 ? 1 : 3;
    ASSERT_EQ(model.Charge(base), ref.Charge(base, config.noise_sigma)) << "op " << n;
    ASSERT_EQ(NoiseStateDiff(model, ref), "") << "op " << n;
  }
}

// Values within the guard of a half-integer never commit on the fast path:
// at, just inside and just outside the guard on both sides of k + 1/2.
TEST(LatencyModelTest, RoundOutsideGuardNeverCommitsNearHalf) {
  const double kGuard = LatencyModel::kNoiseGuard;
  for (const double k : {0.0, 1.0, 3.0, 13.0, 59.0, 109.0, 349.0, 949.0, 1399.0, 11999.0,
                         1048575.0, 1e7, 2e8}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const double half = k + 0.5;
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(half), 0u);
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(std::nextafter(half, 0.0)), 0u);
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(std::nextafter(half, 1e300)), 0u);
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(half * (1 - 0.9 * kGuard)), 0u);
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(half * (1 + 0.9 * kGuard)), 0u);
    const auto clamped = [](double v) { return static_cast<SimTime>(v < 1.0 ? 1.0 : v); };
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(half * (1 - 1.1 * kGuard)), clamped(k));
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(half * (1 + 1.1 * kGuard)), clamped(k + 1));
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(k + 0.25), clamped(k));
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(k + 0.75), clamped(k + 1));
  }
  // From 5e8 up the guard spans a whole unit: nothing commits.
  for (const double v : {5.1e8, 1e12, 0x1p51, 1e300}) {
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(v), 0u) << v;
    EXPECT_EQ(LatencyModel::RoundOutsideGuard(std::floor(v)), 0u) << v;
  }
  EXPECT_EQ(LatencyModel::RoundOutsideGuard(std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(LatencyModel::RoundOutsideGuard(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(LatencyModel::RoundOutsideGuard(1e-300), 1u);
}

// Charges whose exact noisy value lies within a quarter of the guard of a
// half-integer, at every batch position: the guard sends each to the exact
// path, and the cost still rounds like libm's.
TEST(LatencyModelTest, NearTieChargesRoundLikeLibm) {
  for (const double sigma : {0.04, 0.5}) {
    LatencyConfig config;
    config.noise_sigma = sigma;
    VirtualClock clock;
    LatencyModel model(config, clock, Rng(21));
    ReferenceNoise ref(Rng(21));
    for (int n = 0; n < 2 * kBatch; ++n) {
      const double factor = ref.PeekFactor(sigma);
      SimTime base = SimTime{1} << 20;
      for (;; ++base) {
        const double noisy = static_cast<double>(base) * factor;
        const double tie_distance = std::fabs(noisy - (std::floor(noisy) + 0.5));
        if (tie_distance < 0.25 * LatencyModel::kNoiseGuard * noisy) {
          break;
        }
        ASSERT_LT(base, SimTime{1} << 24) << "no near-tie base for draw " << n;
      }
      ASSERT_EQ(model.Charge(base), ref.Charge(base, sigma))
          << "sigma " << sigma << " draw " << n;
    }
  }
}

// Each draw's base puts the exact noisy value near 2.5e8, where the guard
// spans half of every unit: a kernel factor off by more than the guard at any
// sigma the kernel runs under would round a large share of these wrongly.
TEST(LatencyModelTest, KernelErrorStaysInsideGuard) {
  for (const double sigma : {0.01, 0.04, 0.1, 0.5, 2.0, 8.0, LatencyModel::kMaxFastSigma}) {
    LatencyConfig config;
    config.noise_sigma = sigma;
    VirtualClock clock;
    LatencyModel model(config, clock, Rng(31));
    ReferenceNoise ref(Rng(31));
    for (int n = 0; n < 100 * kBatch; ++n) {
      const double want = 2.5e8 / ref.PeekFactor(sigma);
      const SimTime base = want < 1.0     ? 1
                           : want > 0x1p60 ? SimTime{1} << 60
                                           : static_cast<SimTime>(want);
      ASSERT_EQ(model.Charge(base), ref.Charge(base, sigma))
          << "sigma " << sigma << " draw " << n;
    }
  }
}

// A restored live batch must be one RefillNoise could have drawn.
TEST(LatencyModelTest, NoiseCacheDamageIsNamed) {
  LatencyConfig config;
  config.noise_sigma = 0.04;
  VirtualClock clock;
  LatencyModel model(config, clock, Rng(5));
  model.Charge(100);
  const LatencyModel::NoiseCacheState intact = model.noise_cache_state();
  ASSERT_EQ(intact.noise_pos, 1);
  EXPECT_EQ(intact.Damage(), nullptr);

  LatencyModel::NoiseCacheState s = intact;
  s.factor[40] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(s.Damage(), nullptr) << "NaN factor";
  s = intact;
  s.factor[0] = std::nextafter(s.factor[0], 2.0);  // one ulp off, even if consumed
  EXPECT_NE(s.Damage(), nullptr) << "factor one ulp off";
  s = intact;
  s.gauss[63] = std::numeric_limits<double>::infinity();
  s.factor[63] = std::exp(s.factor_sigma * s.gauss[63]);
  EXPECT_NE(s.Damage(), nullptr) << "infinite gaussian";
  s = intact;
  s.noise_pos = kBatch + 1;
  EXPECT_NE(s.Damage(), nullptr) << "cursor past the batch";
  s = intact;
  s.factor[7] = std::numeric_limits<double>::quiet_NaN();
  s.noise_pos = kBatch;
  EXPECT_EQ(s.Damage(), nullptr) << "a spent batch is never read";
}

TEST(VirtualClockTest, AdvanceAndReset) {
  VirtualClock clock;
  clock.Advance(5 * kSecond);
  EXPECT_EQ(clock.now(), 5 * kSecond);
  clock.Advance(3);
  EXPECT_EQ(clock.now(), 5 * kSecond + 3);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

}  // namespace
}  // namespace vusion
