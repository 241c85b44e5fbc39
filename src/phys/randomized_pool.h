// VUsion's Randomized Allocation pool (§7.1): a reserve of frames (128 MB in the
// paper, i.e. 32768 frames = 15 bits of entropy) from which every frame backing a
// (fake) merge or unmerge is drawn uniformly at random. Frames freed by fusion enter
// the pool at a random slot, evicting a random resident frame back to the buddy
// allocator, so an attacker's vulnerable template frame is controllably reused with
// probability only 1/pool_size.

#ifndef VUSION_SRC_PHYS_RANDOMIZED_POOL_H_
#define VUSION_SRC_PHYS_RANDOMIZED_POOL_H_

#include <vector>

#include "src/phys/frame_allocator.h"
#include "src/sim/rng.h"

namespace vusion {

class FaultInjector;

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class RandomizedPool final : public FrameAllocator {
 public:
  // Reserves up to pool_size frames from the buddy allocator (fewer if memory is
  // tight; the effective entropy shrinks accordingly).
  RandomizedPool(FrameAllocator& backing, std::size_t pool_size, Rng rng);
  ~RandomizedPool() override;

  // Savestates: slot contents (order = slot index = what the RNG draws over),
  // draw RNG stream, and the lifetime counters. The restore path empties the
  // pool (Abandon) before the Machine restore rebuilds the buddy allocator
  // wholesale, so the frames the constructor reserved neither leak nor get
  // freed twice; RestoreState then loads the saved slots, each a frame id below
  // `frame_count`.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r, std::size_t frame_count);
  // Forgets the reserved frames without returning them to the backing
  // allocator, whose state a restore is about to replace.
  void Abandon() { slots_.clear(); }

  // Optional chaos hook: injected failures make a draw fail outright (the
  // caller sees a transient OOM and must degrade gracefully).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Draws a uniformly random frame from the pool and refills the slot from the buddy
  // allocator. Falls back to a plain buddy allocation if the pool is empty.
  FrameId Allocate() override;

  // Inserts the frame at a random pool slot, evicting the previous resident to the
  // buddy allocator.
  void Free(FrameId frame) override;

  [[nodiscard]] std::size_t free_count() const override { return backing_->free_count(); }
  [[nodiscard]] std::size_t pool_size() const { return slots_.size(); }
  [[nodiscard]] double entropy_bits() const;
  // The frames currently held in reserve (frame-accounting audits).
  [[nodiscard]] const std::vector<FrameId>& slots() const { return slots_; }

  // Normalized slot index of the most recent Allocate() draw in [0, 1), or a
  // negative value if the last allocation bypassed the pool. The RA security
  // evaluation (§9.1) KS-tests these draws against the uniform distribution.
  [[nodiscard]] double last_slot_fraction() const { return last_slot_fraction_; }

  // Lifetime operation counts (telemetry): random draws served from the pool,
  // slot refills from the backing allocator, allocations that bypassed an empty
  // pool, and frees inserted (evicting a resident back to the backing allocator).
  [[nodiscard]] std::uint64_t draw_count() const { return draw_count_; }
  [[nodiscard]] std::uint64_t refill_count() const { return refill_count_; }
  [[nodiscard]] std::uint64_t bypass_count() const { return bypass_count_; }
  [[nodiscard]] std::uint64_t insert_count() const { return insert_count_; }

 private:
  FrameAllocator* backing_;
  FaultInjector* injector_ = nullptr;
  Rng rng_;
  std::vector<FrameId> slots_;
  double last_slot_fraction_ = -1.0;
  std::uint64_t draw_count_ = 0;
  std::uint64_t refill_count_ = 0;
  std::uint64_t bypass_count_ = 0;
  std::uint64_t insert_count_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_PHYS_RANDOMIZED_POOL_H_
