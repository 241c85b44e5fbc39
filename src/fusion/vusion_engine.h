// VUsion: secure page fusion (paper §6-§8).
//
// Same Behaviour (SB):
//  - Share-xor-Fetch: every page considered for fusion loses ALL access (reserved
//    PTE bits) and is made uncacheable (cache-disable bit, stopping prefetch); any
//    subsequent access is a copy-on-access fault, merged or not.
//  - Fake Merging: pages with no duplicate get the exact same treatment - they
//    become refcount-1 entries of the single stable tree (no unstable tree exists,
//    closing that side channel), and the fault path executes identical instructions
//    for merged and fake-merged pages (deferred free + dummy queue entries).
//  - Each scan round, every (fake) merged page is re-backed by a fresh random frame
//    so page-coloring across rounds learns nothing (§7.1(iii)).
//
// Randomized Allocation (RA): every frame backing a (fake) merge or an unmerge is
// drawn from a randomized pool (32768 frames = 15 bits of entropy by default).
//
// Working-set estimation: only pages idle for a full scan round (idle page
// tracking) are considered, which is also why VUsion merges one round later than
// KSM (visible in the paper's Figure 10).
//
// THP: huge pages are split before being considered; with thp_aware (the paper's
// "VUsion THP") khugepaged may securely collapse active ranges after the engine
// (fake) unmerges every managed subpage (§8.2); without it, ranges containing
// managed pages are simply never collapsed.

#ifndef VUSION_SRC_FUSION_VUSION_ENGINE_H_
#define VUSION_SRC_FUSION_VUSION_ENGINE_H_

#include <unordered_map>
#include <vector>

#include "src/container/arena.h"
#include "src/container/rbtree.h"
#include "src/fusion/content.h"
#include "src/fusion/deferred_free.h"
#include "src/fusion/fusion_engine.h"
#include "src/phys/randomized_pool.h"

namespace vusion {

class VUsionEngine final : public FusionEngine {
 public:
  VUsionEngine(Machine& machine, const FusionConfig& config);
  ~VUsionEngine() override;

  [[nodiscard]] const char* name() const override {
    return config_.thp_aware ? "VUsion-THP" : "VUsion";
  }
  [[nodiscard]] std::uint64_t frames_saved() const override { return frames_saved_; }
  [[nodiscard]] std::size_t reserved_frames() const override { return pool_.pool_size(); }
  void ForgetReservedFrames() override { pool_.Abandon(); }

  void Run() override;

  [[nodiscard]] const host::ScanTiming* scan_timing() const override { return &timing_; }

  void ExportMetrics(MetricsRegistry& registry) const override;

  bool HandleFault(Process& process, const PageFault& fault) override;
  bool OnUnmap(Process& process, Vpn vpn) override;
  bool AllowCollapse(Process& process, Vpn base) override;
  bool PrepareCollapse(Process& process, Vpn base) override;
  void OnUnregister(Process& process, Vpn start, std::uint64_t pages) override;
  void OnProcessDestroy(Process& process) override;
  bool Owns(const Process& process, Vpn vpn) const override { return IsManaged(process, vpn); }

  // --- Introspection (tests, benches) ---

  [[nodiscard]] bool IsManaged(const Process& process, Vpn vpn) const;
  // True if the page shares its backing frame with at least one other page.
  [[nodiscard]] bool IsShared(const Process& process, Vpn vpn) const;
  [[nodiscard]] std::size_t stable_size() const { return stable_.size(); }
  [[nodiscard]] bool ValidateTree() const { return stable_.ValidateInvariants(); }

  // Machine-wide consistency check: stable tree, per-process page map, deferred
  // queue, entropy pool, and the kernel's refcounts/PTEs must all agree. See
  // src/chaos/invariant_auditor.h.
  void AuditInvariants(AuditContext& ctx) const override;

  [[nodiscard]] RandomizedPool& pool() { return pool_; }
  [[nodiscard]] DeferredFreeQueue& deferred_queue() { return deferred_; }
  [[nodiscard]] std::uint64_t round() const { return round_; }

  // Savestates (DESIGN.md §13).
  [[nodiscard]] bool SupportsSnapshot() const override { return true; }
  void SaveState(snapshot::SnapshotWriter& w) const override;
  void RestoreState(snapshot::SnapshotReader& r) override;

 private:
  struct StableEntry;
  struct StableCompare {
    VUsionEngine* engine;
    int operator()(StableEntry* const& a, StableEntry* const& b) const;
  };
  using Tree = RbTree<StableEntry*, StableCompare>;

  struct Sharer {
    Process* process = nullptr;
    Vpn vpn = 0;
  };

  struct StableEntry {
    FrameId frame = kInvalidFrame;
    std::vector<Sharer> sharers;
    std::uint64_t relocated_round = 0;
    Tree::Node* node = nullptr;
  };

  struct PageInfo {
    bool managed = false;
    std::uint64_t candidate_round = 0;
    StableEntry* entry = nullptr;
  };
  // Tracked pages, indexed per process so VM teardown drops a process's
  // bookkeeping in O(its pages) instead of sweeping the whole map.
  using ProcessPages = std::unordered_map<Vpn, PageInfo>;

  static constexpr std::uint16_t kManagedFlags =
      kPtePresent | kPteReserved | kPteCacheDisable;

  void ScanOne(Process& process, Vpn vpn);
  // The wake quantum's scan loop. It is serial at every scan_threads: a host
  // pool never paid for VUsion's scan (DESIGN.md §12).
  void ScanQuantum();
  // Removes all access and (fake) merges the page (the SB-enforcing action).
  void Act(Process& process, Vpn vpn, Pte* pte);
  // Moves an entry's backing to a fresh random frame (per-round re-randomization).
  void RelocateEntry(StableEntry* entry);
  // Copy-on-access body, shared by the fault handler and PrepareCollapse. False
  // means the backing allocation failed transiently and nothing was changed: the
  // page stays (fake) merged and the caller must not drop its bookkeeping.
  [[nodiscard]] bool UnmergeTo(Process& process, Vpn vpn, PageInfo& info,
                               std::uint16_t new_flags);
  void DetachSharer(StableEntry* entry, const Process& process, Vpn vpn);
  FrameId AllocBacking();

  ChargedContent content_;
  ScanCursor cursor_;
  host::ScanTiming timing_;
  // Node and StableEntry storage for the stable tree; declared before it so it
  // outlives the tree's destructor.
  Arena arena_;
  Tree stable_;
  RandomizedPool pool_;
  DeferredFreeQueue deferred_;
  std::unordered_map<std::uint32_t, ProcessPages> pages_;
  std::uint64_t round_ = 1;
  std::uint64_t frames_saved_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_VUSION_ENGINE_H_
