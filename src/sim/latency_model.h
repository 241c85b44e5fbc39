// Central latency model: every simulated hardware/kernel operation gets its cost here.
//
// The constants approximate the paper's testbed (Intel Xeon E3-1240 v5, DDR4) at the
// granularity the attacks care about: a cached access is tens of ns, a DRAM access is
// ~100 ns, and a page fault that copies a page is microseconds. Side channels in this
// repository are *distributional*, so each charge can carry seeded log-normal noise to
// produce realistic histograms while staying reproducible.

#ifndef VUSION_SRC_SIM_LATENCY_MODEL_H_
#define VUSION_SRC_SIM_LATENCY_MODEL_H_

#include <cmath>
#include <limits>

#include "src/sim/clock.h"
#include "src/sim/rng.h"

namespace vusion {

// Latency constants in nanoseconds. Members are mutable configuration so tests and
// ablation benches can stress specific costs.
struct LatencyConfig {
  // Address translation.
  SimTime tlb_hit = 1;
  SimTime tlb_lookup = 1;           // charged even on miss, before the walk
  SimTime page_walk_step_cached = 4;  // PT entry found in LLC
  SimTime page_walk_step_memory = 70; // PT entry fetched from DRAM

  // Data access.
  SimTime l1_hit = 4;
  SimTime llc_hit = 14;
  SimTime dram_row_hit = 60;
  SimTime dram_row_miss = 110;      // activate + precharge
  SimTime uncached_access = 180;    // PTE cache-disable bit set: always DRAM, stronger penalty

  SimTime clflush = 40;             // cache line flush instruction
  SimTime page_cache_fill = 6000;   // guest FS read filling one page-cache page

  // Kernel paths.
  SimTime fault_entry_exit = 1400;  // trap, handler dispatch, return
  SimTime page_copy_4k = 950;       // copy_user_highpage equivalent
  SimTime buddy_alloc = 420;
  SimTime buddy_free = 380;
  SimTime pte_update = 90;          // incl. TLB shootdown cost, single CPU
  SimTime tree_step = 25;           // one comparison+descend in a fusion tree
  SimTime content_compare = 600;    // memcmp of two 4 KB pages
  SimTime content_hash = 350;       // hash of one 4 KB page
  SimTime queue_op = 60;            // deferred-free queue push (also the dummy push)
  SimTime huge_collapse = 12000;    // khugepaged copying 512 pages
  SimTime huge_split = 2100;        // splitting a THP into 512 PTEs

  // Relative sigma of the log-normal noise applied by Noisy(); 0 disables noise.
  double noise_sigma = 0.04;
};

// Applies latencies to a clock, with optional noise from a dedicated RNG stream.
class LatencyModel {
 public:
  // Noise draws are precomputed in batches of this size (even: refills consume
  // whole Box-Muller pairs). Public because the savestate mirrors the batch.
  static constexpr int kNoiseBatch = 64;
  static constexpr int kNoisePairs = kNoiseBatch / 2;
  // Largest sigma the batch kernel runs under: |sigma * g| <= 64 * 8.58 keeps
  // its exp far from overflow. Larger sigmas draw exact batches.
  static constexpr double kMaxFastSigma = 64.0;

  // The guard on the batch kernel's approximate noisy values. Error budget:
  // over 6.4 M draws the kernel's factor was within 2.2e-16 (relative) of
  // libm's exp(sigma * g) at sigma = 0.04, 1.6e-15 at 0.5 and 2e-13 at
  // kMaxFastSigma. The terms: libm is within 1 ulp per call and the kernel's
  // polynomials about as close; the kernel takes sin/cos of 2π u2 unrounded,
  // where libm gets it rounded, at most 4.4e-16 rad away; and an absolute
  // error in the exponent sigma * g becomes a relative error in the factor.
  // The product with base rounds once on both sides. So when the approximate
  // value lies farther than kNoiseGuard (relative) from every k + 1/2 — a
  // margin of over 10^5 at sigma <= 0.5 — the exact value lies in the same
  // interval (k - 1/2, k + 1/2) and rounds to the same k.
  static constexpr double kNoiseGuard = 1e-9;
  // round(noisy), clamped to at least 1 like every noisy cost, when noisy lies
  // farther than the guard from every k + 1/2; 0 when the exact value must
  // decide (about 2e-9 * noisy of charges, and all from 5e8 up), and for NaN
  // or noisy >= 2^51.
  static SimTime RoundOutsideGuard(double noisy) {
    if (!(noisy < 0x1p51)) {
      return 0;
    }
    // `above` is noisy's distance past the half-integer below it, exact
    // wherever it can commit: the sum is exact below 2^50, and from 5e8 up
    // the guard exceeds 1/2.
    const double shifted = noisy + 0.5;
    const auto cost = static_cast<SimTime>(shifted);
    const double above = shifted - static_cast<double>(cost);
    const double guard = kNoiseGuard * noisy;
    if (above > guard && 1.0 - above > guard) {
      return cost == 0 ? 1 : cost;
    }
    return 0;
  }

  LatencyModel(const LatencyConfig& config, VirtualClock& clock, Rng noise_rng);

  // Charges `base` nanoseconds with multiplicative log-normal noise. Inline
  // (with the batch lookup): the scan loop charges several times per page, and
  // the cross-TU call overhead is measurable there.
  SimTime Charge(SimTime base) {
    SimTime cost = base;
    const double sigma = config_.noise_sigma;
    if (sigma > 0.0 && base > 0) {
      // One draw from the precomputed noise batch: the gaussian the
      // per-charge NextLogNormal would draw, as the factor exp(sigma * g).
      // The kernel's approximation decides unless the guard refuses it, or
      // sigma is not the one the batch was computed under (a mid-batch
      // mutable_config() change, or an exact batch).
      if (noise_pos_ == kNoiseBatch) {
        RefillNoise();
      }
      const int i = noise_pos_++;
      cost = sigma == fast_sigma_ ? RoundOutsideGuard(static_cast<double>(base) * approx_[i]) : 0;
      if (cost == 0) {
        cost = ExactNoisyCost(base, i);
      }
    }
    if (batching()) {
      pending_ += cost;
    } else {
      clock_->Advance(cost);
    }
    return cost;
  }

  // Charges without noise (for bookkeeping costs where jitter is irrelevant).
  SimTime ChargeExact(SimTime base) {
    if (batching()) {
      pending_ += base;
    } else {
      clock_->Advance(base);
    }
    return base;
  }

  // --- Batched charging (see ChargeSpan below) ---
  //
  // Inside an open batch, Charge/ChargeExact draw their noise exactly as in
  // unbatched operation (same RNG calls, same order, same costs) but accumulate
  // the costs instead of advancing the clock per call; the accumulated total is
  // applied in one Advance at flush. Because VirtualClock::Advance is a pure
  // sum, the flushed clock is bit-identical to the unbatched clock — provided
  // every mid-span reader of clock().now() (trace emits, daemon scheduling)
  // calls FlushPending() first. Batches nest; only the outermost close flushes
  // implicitly.
  void BeginBatch() { ++batch_depth_; }
  void EndBatch() {
    if (--batch_depth_ == 0) {
      FlushPending();
    }
  }
  // Applies any accumulated cost to the clock. Must be called before reading
  // clock().now() inside an open batch; harmless (and O(1)) otherwise.
  void FlushPending() {
    if (pending_ > 0) {
      clock_->Advance(pending_);
      pending_ = 0;
    }
  }
  // Parity toggle: when disabled, every charge advances the clock immediately
  // even inside a span.
  void set_batching_enabled(bool enabled) {
    FlushPending();
    batching_enabled_ = enabled;
  }
  [[nodiscard]] bool batching_enabled() const { return batching_enabled_; }

  [[nodiscard]] const LatencyConfig& config() const { return config_; }
  LatencyConfig& mutable_config() { return config_; }
  [[nodiscard]] VirtualClock& clock() { return *clock_; }

  // --- Savestate accessors (mirrors Rng::state()/RestoreState) ---
  //
  // The buffered noise draws are deterministic stream state: the batch holds
  // gaussians already pulled from the noise RNG but not yet consumed by
  // Charge, so dropping them on restore would shift every later draw. Both
  // accessors report what the always-libm batch would hold: a batch drawn as
  // uniforms recomputes its exact gaussians and factors here, and the noise
  // stream's stale Box-Muller spare (the batch's last gaussian).
  struct NoiseCacheState {
    double gauss[kNoiseBatch] = {};
    double factor[kNoiseBatch] = {};
    double factor_sigma = -1.0;
    int noise_pos = kNoiseBatch;

    // Why this cannot be a batch RefillNoise drew, or nullptr if it can: the
    // cursor must lie in [0, kNoiseBatch], and a live batch (cursor below
    // kNoiseBatch) needs finite gaussians and factors bit-equal to
    // exp(factor_sigma * gauss), since Charge trusts both.
    [[nodiscard]] const char* Damage() const;
  };
  [[nodiscard]] NoiseCacheState noise_cache_state() const;
  [[nodiscard]] Rng::State noise_rng_state() const;
  // Restores the noise stream and its batch. The restored batch is charged on
  // the exact path until the next refill.
  void RestoreNoiseState(const Rng::State& rng, const NoiseCacheState& cache);

 private:
  [[nodiscard]] bool batching() const { return batch_depth_ > 0 && batching_enabled_; }
  [[nodiscard]] bool fast_batch() const { return !std::isnan(fast_sigma_); }
  // Draw i's gaussian exactly as NextGaussian produced (or would produce) it.
  [[nodiscard]] double ExactGaussian(int i) const;

  // Draw i's cost from libm's expressions under the current sigma, rounded
  // as llround and clamped to at least 1: bit-identical to the always-libm
  // batch. Out of line: a fast batch sends few charges here.
  [[nodiscard]] SimTime ExactNoisyCost(SimTime base, int i) const;
  // Draws the next kNoiseBatch gaussians of the noise stream. rng_ feeds
  // nothing but Charge's noise, so drawing ahead of consumption is invisible
  // to every other stream. A fast batch stores the 32 Box-Muller uniform pairs
  // and lets one vectorized kernel approximate all 64 factors; an exact batch
  // (the stream holds a spare, or sigma > kMaxFastSigma) stores libm's
  // gaussians and factors as NextGaussian and std::exp produce them.
  void RefillNoise();

  LatencyConfig config_;
  VirtualClock* clock_;
  Rng rng_;
  SimTime pending_ = 0;
  int batch_depth_ = 0;
  bool batching_enabled_ = true;
  int noise_pos_ = kNoiseBatch;
  // Sigma approx_ was computed with, or NaN while the batch is exact, so that
  // no sigma selects the fast path.
  double fast_sigma_ = std::numeric_limits<double>::quiet_NaN();
  double factor_sigma_ = -1.0;  // sigma the batch's factors were computed with
  double approx_[kNoiseBatch] = {};  // fast batch: kernel factors
  double u1_[kNoisePairs] = {};      // fast batch: Box-Muller uniforms
  double u2_[kNoisePairs] = {};
  double gauss_[kNoiseBatch] = {};   // exact batch: libm gaussians
  double factor_[kNoiseBatch] = {};  // exact batch: libm factors
};

// RAII batch scope for a homogeneous run of charges (one scan pass, one page's
// worth of tree descends). Open around hot loops; emit paths inside must flush
// before timestamping (the engines' trace emits do).
class ChargeSpan {
 public:
  explicit ChargeSpan(LatencyModel& model) : model_(&model) { model_->BeginBatch(); }
  ~ChargeSpan() { model_->EndBatch(); }
  ChargeSpan(const ChargeSpan&) = delete;
  ChargeSpan& operator=(const ChargeSpan&) = delete;

 private:
  LatencyModel* model_;
};

}  // namespace vusion

#endif  // VUSION_SRC_SIM_LATENCY_MODEL_H_
