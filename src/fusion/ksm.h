// Linux Kernel Same-page Merging model (paper §2.1), including the properties the
// attacks exploit:
//  - the merged copy is backed by one of the sharing parties' frames (Flip Feng
//    Shui's memory-massaging primitive),
//  - unstable-tree pages are not write-protected while stable pages are (a
//    merge-detection channel),
//  - unmerge is a copy-on-write fault measurably slower than a plain write.
//
// With FusionConfig::unmerge_on_any_access the engine becomes the "copy-on-access
// KSM" variant of the paper's Figure 4; with zero_pages_only it fuses only
// zero-content pages (the mitigation the paper shows is insufficient).

#ifndef VUSION_SRC_FUSION_KSM_H_
#define VUSION_SRC_FUSION_KSM_H_

#include <array>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/container/arena.h"
#include "src/container/flat_map.h"
#include "src/container/rbtree.h"
#include "src/fusion/content.h"
#include "src/fusion/fusion_engine.h"

namespace vusion {

class Ksm final : public FusionEngine {
 public:
  Ksm(Machine& machine, const FusionConfig& config);
  ~Ksm() override;

  [[nodiscard]] const char* name() const override;
  [[nodiscard]] std::uint64_t frames_saved() const override { return frames_saved_; }

  // Daemon: scans pages_per_wake pages every wake_period.
  void Run() override;

  [[nodiscard]] const host::ScanTiming* scan_timing() const override { return &timing_; }

  // SharingPolicy.
  bool HandleFault(Process& process, const PageFault& fault) override;
  bool OnUnmap(Process& process, Vpn vpn) override;
  bool AllowCollapse(Process& process, Vpn base) override;
  bool PrepareCollapse(Process& /*process*/, Vpn /*base*/) override { return true; }
  void OnUnregister(Process& process, Vpn start, std::uint64_t pages) override;
  void OnProcessDestroy(Process& process) override;
  bool Owns(const Process& process, Vpn vpn) const override {
    return rmap_.contains(KeyOf(process, vpn));
  }

  [[nodiscard]] std::size_t stable_size() const { return stable_.size(); }
  [[nodiscard]] std::size_t unstable_size() const { return UnstableSize(); }

  [[nodiscard]] bool ValidateTrees() const {
    return stable_.ValidateInvariants() && ValidateUnstableChains();
  }
  // True if (process, vpn) is currently merged (test helper).
  [[nodiscard]] bool IsMerged(const Process& process, Vpn vpn) const;

  // Machine-wide consistency check: stable tree, rmap, checksum index, and the
  // kernel's refcounts/PTEs must all agree. See src/chaos/invariant_auditor.h.
  void AuditInvariants(AuditContext& ctx) const override;

  // Savestates (DESIGN.md §13).
  [[nodiscard]] bool SupportsSnapshot() const override { return true; }
  void SaveState(snapshot::SnapshotWriter& w) const override;
  void RestoreState(snapshot::SnapshotReader& r) override;

 private:
  struct StableEntry;
  struct StableCompare {
    Ksm* ksm;
    int operator()(StableEntry* const& a, StableEntry* const& b) const;
  };
  // sort_hash is the frame's content hash at insert time and the conceptual
  // unstable-tree key (with the frame id as tie-break). Both keys are
  // immutable, so the conceptual tree's shape is a pure function of the insert
  // sequence — the property that lets the items live in flat per-hash chains
  // and still resolve every lookup to exactly the node an rb-tree keyed the
  // same way would return.
  struct UnstableItem {
    FrameId frame = kInvalidFrame;
    Process* process = nullptr;
    Vpn vpn = 0;
    std::uint64_t sort_hash = 0;
  };
  using StableTree = RbTree<StableEntry*, StableCompare>;
  // Checksum-gate maps are keyed by plain vpns — dense per-process runs — so
  // the identity mixer keeps the scan loop's probes on consecutive cache lines.
  using ChecksumMap = FlatMap64<std::uint64_t, IdentityHash>;

  struct StableEntry {
    FrameId frame = kInvalidFrame;
    std::uint32_t refs = 0;
    StableTree::Node* node = nullptr;
    // Content-index chain (see stable_index_): the entry's content hash at
    // stabilize time and the next entry in its equal-hash bucket.
    std::uint64_t index_hash = 0;
    StableEntry* index_next = nullptr;
  };

  static std::uint64_t KeyOf(const Process& process, Vpn vpn) {
    return (static_cast<std::uint64_t>(process.id()) << 40) ^ vpn;
  }

  // One page of the scan flow (Figure 1): stable lookup, unstable lookup and
  // match, checksum-gated unstable insert.
  void ScanOne(Process& process, Vpn vpn);

  // --- Unstable-tree facade ---
  //
  // All unstable-tree access goes through these, so the conceptual tree (the
  // per-hash chains) stays consistent with the size the charged descend cost
  // is a function of.
  [[nodiscard]] std::size_t UnstableSize() const { return unstable_live_; }
  struct FpSlot;  // defined with the fingerprint structures below
  // Finds the conceptual unstable item matching (hash, content-of-frame) — the
  // leftmost (hash, frame)-ordered content match, exactly what a tree Find
  // would return — and removes it, copying it into *out. Returns false if no
  // item matches. Defined inline because the common outcome on a unique page —
  // no live chain for the probe hash — is decided by one (prefetched) slot
  // read; the rarer chain walk stays out of line.
  bool UnstableFindRemove(std::uint64_t hash, FrameId frame, UnstableItem* out) {
    // No conceptual item was inserted with this hash => nothing can match (the
    // sort_hash key is immutable), so the chain walk is skipped entirely.
    FpSlot* fp = FpFind(hash);
    if (fp == nullptr || fp->stamp != fps_round_ || fp->count == 0) {
      return false;
    }
    return UnstableChainRemove(fp, frame, out);
  }
  bool UnstableChainRemove(FpSlot* fp, FrameId frame, UnstableItem* out);
  // Inline for the same reason as UnstableFindRemove: one steady-state append
  // per unique page, from the already-memoized slot.
  void UnstableInsert(UnstableItem item) {
    if ((fps_used_ + 1) * 2 > fps_slots_.size()) {
      FpGrow();
    }
    // ScanOne's find already walked this hash's probe chain; resume at its
    // terminal slot (the match, or the empty slot the find stopped on) instead of
    // re-probing from the home index.
    std::size_t i = (fps_memo_idx_ != ~std::size_t{0} && fps_memo_hash_ == item.sort_hash)
                        ? fps_memo_idx_
                        : FpIndex(item.sort_hash);
    while (true) {
      FpSlot& s = fps_slots_[i];
      if (s.stamp == 0) {
        s.hash = item.sort_hash;
        ++fps_used_;
      } else if (s.hash != item.sort_hash) {
        i = (i + 1) & fps_mask_;
        continue;
      }
      if (s.stamp != fps_round_) {
        // First touch this round: the stale chain (indices into a pool cleared at
        // round end) dies with the restamp.
        s.stamp = fps_round_;
        s.count = 0;
        s.head = kNoNode;
        s.tail = kNoNode;
        ++fps_stamped_;
      }
      const auto idx = static_cast<std::uint32_t>(unstable_pool_.size());
      unstable_pool_.push_back(UnstableNode{item, kNoNode});
      if (s.tail == kNoNode) {
        s.head = idx;
      } else {
        unstable_pool_[s.tail].next = idx;
      }
      s.tail = idx;
      ++s.count;
      ++unstable_live_;
      break;
    }
  }

  void UnstableClear();
  [[nodiscard]] bool ValidateUnstableChains() const;
  // Stable-tree content lookup: the hash index until the first shared-frame
  // corruption, the reference tree descent from then on. Inline so the common
  // unique-page outcome — counting-filter bucket zero, hash provably not
  // indexed — is one array read with no call.
  StableEntry* StableLookup(FrameId frame, std::uint64_t hash) {
    if (machine_->memory().shared_content_mutations() == 0) {
      if (stable_filter_[StableFilterBucket(hash)] == 0) {
        return nullptr;  // filter miss: hash provably not in the index
      }
      return StableIndexLookup(frame, hash);
    }
    return StableTreeLookup(frame);
  }
  StableEntry* StableIndexLookup(FrameId frame, std::uint64_t hash);
  StableEntry* StableTreeLookup(FrameId frame);
  void StableIndexInsert(StableEntry* entry);
  void StableIndexRemove(StableEntry* entry);
  // The pid's checksum-gate map, memoized across the scan loop's consecutive
  // same-process pages so the steady state pays one unordered_map hop per
  // process switch instead of per page.
  ChecksumMap& ChecksumsFor(std::uint32_t pid) {
    if (checksum_memo_ != nullptr && checksum_memo_pid_ == pid) {
      return *checksum_memo_;
    }
    ChecksumMap& map = checksums_[pid];
    checksum_memo_ = &map;
    checksum_memo_pid_ = pid;
    return map;
  }
  // The wake quantum's scan loop: serial reference (scan_threads<=1) or the
  // streaming pipeline. Both produce bit-identical simulated results.
  void ScanQuantumSerial();
  void ScanQuantumPipelined(host::ThreadPool& pool);
  // Invalidates batch items whose process a phase hook tore down mid-scan.
  void PruneDeadItems();
  // Promotes an unstable match to the stable tree (write-protecting it).
  StableEntry* Stabilize(const UnstableItem& item);
  // Points (process, vpn) at the entry's frame and releases its duplicate.
  void MergeInto(Process& process, Vpn vpn, StableEntry* entry);
  // Splits the huge mapping covering vpn, if any, charging the split cost.
  Pte* EnsureSmallMapping(Process& process, Vpn vpn);
  [[nodiscard]] bool UnstableStillValid(const UnstableItem& item) const;
  void DropRef(StableEntry* entry);
  // Gives (process, vpn) a private writable copy again (break_ksm/break_cow).
  bool BreakCow(Process& process, Vpn vpn, StableEntry* entry, std::uint16_t extra_flags);
  [[nodiscard]] std::uint16_t MergedFlags(std::uint16_t accessed_bit) const;

  ChargedContent content_;
  ScanCursor cursor_;
  host::ParallelScanPipeline pipeline_;
  host::ScanTiming timing_;
  std::vector<host::ScanItem> batch_;
  // Node storage for the stable tree; declared before it so it outlives the
  // tree's destructor (members are destroyed in reverse declaration order).
  Arena arena_;
  StableTree stable_;
  // Insert-time hashes of every conceptual unstable item. A probe hash absent
  // here cannot match any node — sort_hash keys are immutable — so
  // UnstableFindRemove skips the chain walk. Stored as a round-stamped
  // open-addressed table (linear probing, fixed-size slots): a slot counts only
  // while its stamp matches fps_round_, so the per-round clear is one round bump
  // and the steady-state insert re-stamps the slot the same hash claimed last
  // round — one cache line touched, nothing allocated. stamp 0 marks a
  // never-used slot (rounds start at 1); old-stamped slots are dead weight that
  // FpGrow() compacts away when they come to dominate the table.
  // A slot also heads this round's chain of items inserted with its hash: the
  // chain (head -> tail through UnstableNode::next, insertion order) IS the
  // unstable structure; no rb-tree is materialized at all.
  struct FpSlot {
    std::uint64_t hash = 0;
    std::uint64_t stamp = 0;
    std::uint32_t count = 0;
    std::uint32_t head = kNoNode;
    std::uint32_t tail = kNoNode;
  };
  [[nodiscard]] std::size_t FpIndex(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash ^ (hash >> 32)) & fps_mask_;
  }
  // Probes for the slot claimed by `hash` (any round), memoizing the terminal
  // probe index — the matching slot, or the empty slot an insert of this hash
  // would claim — so ScanOne's find-then-insert pair walks the probe chain
  // once, not twice.
  [[nodiscard]] FpSlot* FpFind(std::uint64_t hash) {
    if (fps_slots_.empty()) {
      return nullptr;
    }
    std::size_t i = FpIndex(hash);
    while (true) {
      FpSlot& s = fps_slots_[i];
      if (s.stamp == 0 || s.hash == hash) {
        // Chains never cross a never-used slot, so stamp 0 proves absence.
        fps_memo_hash_ = hash;
        fps_memo_idx_ = i;
        return s.stamp == 0 ? nullptr : &s;
      }
      i = (i + 1) & fps_mask_;
    }
  }
  void FpGrow();
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  // Flat pool backing the per-hash chains. Append-only within a round (removed
  // items are unlinked, their pool entries abandoned), recycled wholesale at
  // round end with capacity retained — the arena discipline for the hottest
  // allocation in the scanner.
  struct UnstableNode {
    UnstableItem item;
    std::uint32_t next = kNoNode;
  };
  std::vector<UnstableNode> unstable_pool_;
  std::size_t unstable_live_ = 0;  // conceptual unstable size
  std::vector<FpSlot> fps_slots_;  // power-of-2; lazily sized on first insert
  std::size_t fps_mask_ = 0;
  std::size_t fps_used_ = 0;  // slots with stamp != 0 (monotonic until FpGrow)
  std::uint64_t fps_round_ = 1;
  std::uint64_t fps_stamped_ = 0;  // distinct hashes stamped this round
  // FpFind's memoized terminal probe index for fps_memo_hash_ (~0 = invalid;
  // dropped whenever FpGrow moves slots). Round bumps keep it valid: they move
  // nothing, and the probe path for a hash is a function of slot layout alone.
  std::size_t fps_memo_idx_ = ~std::size_t{0};
  std::uint64_t fps_memo_hash_ = 0;
  FlatMap64<StableEntry*> rmap_;
  // Content-hash index over the stable tree's entries (head of an intrusive
  // equal-hash chain per bucket). Maintained on every stabilize/drop; consulted
  // by StableLookup only while no shared-frame content mutation has ever
  // occurred — a mutated stable frame invalidates insert-time keys, and the
  // live-keyed tree descent is the reference behavior for that corrupted
  // regime.
  FlatMap64<StableEntry*> stable_index_;
  // Counting filter over stable_index_'s keys. Every unique page's stable
  // lookup is a miss, and a zero bucket proves the probe hash absent without
  // touching the index table at all; sized to stay L1-resident. Bytes saturate
  // sticky at 255 (never decremented back below), which can only cost false
  // positives, never a missed entry.
  static constexpr std::size_t kStableFilterBuckets = 4096;
  [[nodiscard]] std::size_t StableFilterBucket(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash ^ (hash >> 32)) & (kStableFilterBuckets - 1);
  }
  std::array<std::uint8_t, kStableFilterBuckets> stable_filter_{};
  // Volatility gate, indexed per process so teardown drops a dead process's
  // checksums in O(its pages) instead of sweeping every tracked page.
  std::unordered_map<std::uint32_t, ChecksumMap> checksums_;
  // ChecksumsFor memo; mapped references are stable under insertion, so the
  // memo only drops when a pid's map is erased (process unregistration).
  ChecksumMap* checksum_memo_ = nullptr;
  std::uint32_t checksum_memo_pid_ = 0;
  std::uint64_t frames_saved_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_KSM_H_
