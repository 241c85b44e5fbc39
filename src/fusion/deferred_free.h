// VUsion's deferred-free queue (paper §7.1 (ii)): pages released by copy-on-access
// are queued and freed in the background instead of interacting with the allocator
// inside the fault handler. Paths that do not free anything push a *dummy* entry so
// merged and fake-merged pages execute the same instructions - this is what closes
// the residual fault-latency channel (the ablation bench reopens it).

#ifndef VUSION_SRC_FUSION_DEFERRED_FREE_H_
#define VUSION_SRC_FUSION_DEFERRED_FREE_H_

#include <vector>

#include "src/kernel/machine.h"
#include "src/phys/frame_allocator.h"

namespace vusion {

class DeferredFreeQueue {
 public:
  explicit DeferredFreeQueue(Machine& machine) : machine_(&machine) {}

  // Queues a real frame for background freeing. Charges one queue operation.
  void Push(FrameId frame);

  // Queues a no-op entry with identical cost (the "dummy request").
  void PushDummy();

  // Background worker: releases all queued frames into `sink` (VUsion passes its
  // randomized pool so freed frames re-enter the entropy pool).
  void Drain(FrameAllocator& sink);

  [[nodiscard]] std::size_t pending() const { return frames_.size(); }
  // Frames awaiting the background free (frame-accounting audits).
  [[nodiscard]] const std::vector<FrameId>& pending_frames() const { return frames_; }
  [[nodiscard]] std::uint64_t dummies_pushed() const { return dummies_; }

  // Savestates (templated to keep this header snapshot-include-free): queue
  // order matters — Drain frees in push order into the randomized pool.
  template <typename Writer>
  void SaveState(Writer& w) const {
    w.U64(frames_.size());
    for (const FrameId f : frames_) {
      w.U32(f);
    }
    w.U64(dummies_);
  }
  template <typename Reader>
  void RestoreState(Reader& r) {
    frames_.clear();
    const std::uint64_t n = r.Count(4);
    frames_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      frames_.push_back(r.Frame(machine_->memory().frame_count()));
    }
    dummies_ = r.U64();
  }

 private:
  Machine* machine_;
  std::vector<FrameId> frames_;
  std::uint64_t dummies_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_DEFERRED_FREE_H_
