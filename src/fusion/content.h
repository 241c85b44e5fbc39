// Latency-charged content operations and the round-robin scan cursor shared by the
// scanning fusion engines.

#ifndef VUSION_SRC_FUSION_CONTENT_H_
#define VUSION_SRC_FUSION_CONTENT_H_

#include <bit>

#include "src/kernel/machine.h"
#include "src/kernel/process.h"

namespace vusion {

// Content hash/compare for the fusion engines. Two strictly separated layers:
//
//  * Charged operations (Hash, ChargeTreeDescend, Matches) accrue the
//    paper-faithful modeled CPU cost — jhash of a 4 KB page, memcmp of two 4 KB
//    pages, rbtree pointer chasing — to the machine clock. Simulated timing
//    depends only on these charges.
//
//  * HostOrder is free on the simulated clock: the total order the content
//    trees are sorted by. It is fingerprint-first — (cached 64-bit hash, bytes
//    only on hash collision) — so a tree-descend step costs the host one
//    integer compare instead of a byte comparison. It agrees with byte order on
//    equality (bytes equal <=> rank equal), and charged costs are a function of
//    tree size only; see DESIGN.md, "Two clocks: host cost vs charged cost".
class ChargedContent {
 public:
  explicit ChargedContent(Machine& machine) : machine_(&machine) {}

  // --- Charged (modeled cost) ---
  //
  // Hash and ChargeTreeDescend are defined inline: the scanners issue both on
  // every unique page, and the cross-TU call overhead is measurable there.

  std::uint64_t Hash(FrameId frame) const {
    LatencyModel& lm = machine_->latency();
    lm.Charge(lm.config().content_hash);
    return machine_->memory().HashContent(frame);
  }
  // Modeled cost of one full lookup/insert descent of a content-ordered tree with
  // `tree_size` entries: floor(log2(size))+1 steps, each a tree_step plus a
  // content_compare, charged as one noisy quantum. Deliberately a function of
  // size alone so the charge stream cannot depend on the host-side tree layout.
  void ChargeTreeDescend(std::size_t tree_size) const {
    if (tree_size == 0) {
      return;
    }
    // floor(log2(n)) + 1, identical to the obvious shift loop.
    const std::size_t steps = std::bit_width(tree_size);
    LatencyModel& lm = machine_->latency();
    lm.Charge(steps * (lm.config().tree_step + lm.config().content_compare));
  }
  // Charged equality check (one content_compare); host work is fingerprint-first.
  [[nodiscard]] bool Matches(FrameId a, FrameId b) const;

  // --- Host-side (free on the simulated clock) ---

  // The tree order: memoized content hash first, bytes on a hash tie.
  [[nodiscard]] int HostOrder(FrameId a, FrameId b) const;

 private:
  Machine* machine_;
};

// Iterates (process, vpn) pairs over all mergeable VMAs of all processes, round
// robin, tolerating processes/VMAs registered while scanning. `wrapped` is set when
// the cursor completes a full round over everything (KSM's unstable-tree reset and
// VUsion's round counter key off this).
class ScanCursor {
 public:
  explicit ScanCursor(Machine& machine) : machine_(&machine) {}

  // Returns false if there is no mergeable memory at all. The inline body is
  // the loop's steady-state first iteration — the current indices still point
  // at a live process/VMA/page — revalidated from scratch on every call (no
  // derived state is memoized), so it is behaviorally identical to entering
  // the out-of-line walk.
  bool Next(Process*& process, Vpn& vpn, bool& wrapped) {
    const auto& processes = machine_->processes();
    if (process_idx_ < processes.size() && processes[process_idx_] != nullptr) {
      Process& candidate = *processes[process_idx_];
      const auto& areas = candidate.address_space().vmas().areas();
      if (vma_idx_ < areas.size()) {
        const VmArea& vma = areas[vma_idx_];
        if (vma.mergeable && page_idx_ < vma.pages) {
          wrapped = false;
          process = &candidate;
          vpn = vma.start + page_idx_;
          ++page_idx_;
          return true;
        }
      }
    }
    return NextSlow(process, vpn, wrapped);
  }

  // What the next Next() would yield, without advancing — the scan loop peeks
  // one page ahead to prefetch its host-side state. Cursor state is four words,
  // so peeking is a copy plus the normal skip logic.
  bool Peek(Process*& process, Vpn& vpn) const {
    ScanCursor copy = *this;
    bool wrapped = false;
    return copy.Next(process, vpn, wrapped);
  }

  // Savestate accessors: the three indices ARE the cursor (everything else is
  // revalidated against the live process table on every Next call).
  struct State {
    std::size_t process_idx = 0;
    std::size_t vma_idx = 0;
    std::uint64_t page_idx = 0;
  };
  [[nodiscard]] State state() const { return {process_idx_, vma_idx_, page_idx_}; }
  void RestoreState(const State& s) {
    process_idx_ = s.process_idx;
    vma_idx_ = s.vma_idx;
    page_idx_ = s.page_idx;
  }

 private:
  bool NextSlow(Process*& process, Vpn& vpn, bool& wrapped);

  Machine* machine_;
  std::size_t process_idx_ = 0;
  std::size_t vma_idx_ = 0;
  std::uint64_t page_idx_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_CONTENT_H_
