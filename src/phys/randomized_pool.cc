#include "src/phys/randomized_pool.h"

#include <cmath>

#include "src/chaos/fault_injector.h"

namespace vusion {

RandomizedPool::RandomizedPool(FrameAllocator& backing, std::size_t pool_size, Rng rng)
    : backing_(&backing), rng_(rng) {
  slots_.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    const FrameId f = backing_->Allocate();
    if (f == kInvalidFrame) {
      // A genuine order-0 failure means memory is exhausted; stop filling. A
      // transient (injected) failure leaves free frames behind — skip just
      // this slot instead of abandoning the whole fill, which would collapse
      // the pool's entropy for the lifetime of the engine.
      if (backing_->free_count() == 0) {
        break;
      }
      continue;
    }
    slots_.push_back(f);
  }
}

RandomizedPool::~RandomizedPool() {
  for (FrameId f : slots_) {
    backing_->Free(f);
  }
}

FrameId RandomizedPool::Allocate() {
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kPoolAlloc)) {
    injector_->RecordDegradation();
    return kInvalidFrame;
  }
  if (slots_.empty()) {
    last_slot_fraction_ = -1.0;
    ++bypass_count_;
    return backing_->Allocate();
  }
  const std::size_t idx = rng_.NextBelow(slots_.size());
  last_slot_fraction_ = static_cast<double>(idx) / static_cast<double>(slots_.size());
  const FrameId out = slots_[idx];
  ++draw_count_;
  const FrameId refill = backing_->Allocate();
  if (refill == kInvalidFrame) {
    slots_[idx] = slots_.back();
    slots_.pop_back();
  } else {
    slots_[idx] = refill;
    ++refill_count_;
  }
  return out;
}

void RandomizedPool::Free(FrameId frame) {
  if (slots_.empty()) {
    backing_->Free(frame);
    return;
  }
  const std::size_t idx = rng_.NextBelow(slots_.size());
  backing_->Free(slots_[idx]);
  slots_[idx] = frame;
  ++insert_count_;
}

double RandomizedPool::entropy_bits() const {
  return slots_.empty() ? 0.0 : std::log2(static_cast<double>(slots_.size()));
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void RandomizedPool::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(slots_.size());
  for (const FrameId f : slots_) {
    w.U32(f);
  }
  const Rng::State rng = rng_.state();
  for (const std::uint64_t word : rng.s) {
    w.U64(word);
  }
  w.F64(rng.spare_gaussian);
  w.Bool(rng.has_spare_gaussian);
  w.F64(last_slot_fraction_);
  w.U64(draw_count_);
  w.U64(refill_count_);
  w.U64(bypass_count_);
  w.U64(insert_count_);
}

void RandomizedPool::RestoreState(snapshot::SnapshotReader& r, std::size_t frame_count) {
  slots_.clear();
  const std::uint64_t n = r.Count(4);
  slots_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    slots_.push_back(r.Frame(frame_count));
  }
  Rng::State rng;
  for (std::uint64_t& word : rng.s) {
    word = r.U64();
  }
  rng.spare_gaussian = r.F64();
  rng.has_spare_gaussian = r.Bool();
  rng_.RestoreState(rng);
  last_slot_fraction_ = r.F64();
  draw_count_ = r.U64();
  refill_count_ = r.U64();
  bypass_count_ = r.U64();
  insert_count_ = r.U64();
}

}  // namespace vusion
