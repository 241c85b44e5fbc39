// Windows Page Fusion model (paper §2.2), as reverse-engineered by the authors:
//  - no opt-in: every anonymous page is scanned, in full passes every 15 minutes;
//  - candidates are hashed and processed in a hash-sorted order;
//  - fused pages live in AVL trees and are backed by *new* frames from a linear
//    end-of-memory allocator (MiAllocatePagesForMdl model).
//
// Allocating new frames defeats classic Flip Feng Shui, but the allocator's
// restart-from-the-top scan makes frame reuse across passes nearly perfect - the
// property the paper's new reuse-based Flip Feng Shui attack (§5.2) exploits, and
// which bench_fig3_wpf_reuse demonstrates.

#ifndef VUSION_SRC_FUSION_WPF_H_
#define VUSION_SRC_FUSION_WPF_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/container/arena.h"
#include "src/container/avl_tree.h"
#include "src/fusion/content.h"
#include "src/fusion/fusion_engine.h"
#include "src/phys/linear_allocator.h"

namespace vusion {

class Wpf final : public FusionEngine {
 public:
  Wpf(Machine& machine, const FusionConfig& config);
  ~Wpf() override;

  [[nodiscard]] const char* name() const override { return "WPF"; }
  [[nodiscard]] std::uint64_t frames_saved() const override { return frames_saved_; }

  void Run() override;

  [[nodiscard]] const host::ScanTiming* scan_timing() const override { return &timing_; }

  bool HandleFault(Process& process, const PageFault& fault) override;
  bool OnUnmap(Process& process, Vpn vpn) override;
  bool AllowCollapse(Process& process, Vpn base) override;
  bool PrepareCollapse(Process& /*process*/, Vpn /*base*/) override { return true; }
  bool Owns(const Process& process, Vpn vpn) const override {
    return rmap_.contains(KeyOf(process, vpn));
  }

  // Frames newly allocated to back fused pages, one vector per completed pass
  // (the paper's Figure 3 scatter data).
  [[nodiscard]] const std::vector<std::vector<FrameId>>& pass_allocations() const {
    return pass_allocations_;
  }
  [[nodiscard]] std::size_t combined_pages() const { return rmap_bucket_count_; }
  [[nodiscard]] bool IsMerged(const Process& process, Vpn vpn) const;
  [[nodiscard]] bool ValidateTrees() const;

  // Machine-wide consistency check: shard trees, rmap, and the kernel's
  // refcounts/PTEs must all agree. See src/chaos/invariant_auditor.h.
  void AuditInvariants(AuditContext& ctx) const override;

  // Runs one full fusion pass immediately (benches drive passes explicitly).
  void RunPassNow() { DoFusionPass(); }

  // Savestates (DESIGN.md §13).
  [[nodiscard]] bool SupportsSnapshot() const override { return true; }
  void SaveState(snapshot::SnapshotWriter& w) const override;
  void RestoreState(snapshot::SnapshotReader& r) override;

 private:
  static constexpr std::size_t kShards = 16;

  struct Combined {
    FrameId frame = kInvalidFrame;
    std::uint32_t refs = 0;
    std::size_t shard = 0;
    // Content hash captured at insertion. The trees sort by (sort_hash, frame)
    // — both immutable — so removal navigation stays correct even if the
    // frame's content is later mutated (e.g. by a Rowhammer flip).
    std::uint64_t sort_hash = 0;
  };
  struct CombinedCompare {
    int operator()(Combined* const& a, Combined* const& b) const;
  };
  using Tree = AvlTree<Combined*, CombinedCompare>;

  struct Candidate {
    std::uint64_t hash = 0;
    Process* process = nullptr;
    std::uint32_t pid = 0;  // stable identity even if the process dies mid-pass
    Vpn vpn = 0;
    FrameId frame = kInvalidFrame;
  };

  static std::uint64_t KeyOf(const Process& process, Vpn vpn) {
    return (static_cast<std::uint64_t>(process.id()) << 40) ^ vpn;
  }

  void DoFusionPass();
  // Examines (process, vpn) and appends it to `candidates` if it is a fusion
  // candidate this pass.
  void CollectOne(Process& process, Vpn vpn, FaultInjector* injector,
                  std::vector<Candidate>& candidates);
  // Drops candidates whose process a phase hook tore down mid-pass.
  void PruneDeadCandidates(std::vector<Candidate>& candidates) const;
  // Fills every candidate's hash, charging content_.Hash in candidate order. With
  // scan_threads>1 the host hash values are streamed in parallel ahead of the
  // charged calls; the charge stream is identical either way.
  void HashCandidates(std::vector<Candidate>& candidates);
  void MergeIntoCombined(const Candidate& candidate, Combined* entry);
  void DropRef(Combined* entry);

  ChargedContent content_;
  host::ParallelScanPipeline pipeline_;
  host::ScanTiming timing_;
  LinearAllocator linear_;
  // Node and Combined-entry storage for the shard trees; declared before them so
  // it outlives their destructors (members are destroyed in reverse order).
  Arena arena_;
  std::vector<std::unique_ptr<Tree>> trees_;
  std::unordered_map<std::uint64_t, Combined*> rmap_;
  std::vector<std::vector<FrameId>> pass_allocations_;
  std::uint64_t frames_saved_ = 0;
  std::size_t rmap_bucket_count_ = 0;  // live Combined entries
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_WPF_H_
