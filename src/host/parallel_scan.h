// Deterministic scan pipeline shared by the fusion engines, in two host
// execution shapes (simulated results are bit-identical in both):
//
// Barrier (the PR-2 shape, still used when a phase hook is armed or no pool is
// available): phase 1 shards the quantum's pages across the worker pool; each
// worker resolves the page's PTE read-only, applies an optional engine-supplied
// read-only filter, and computes the frame's content-hash snapshot with
// PhysicalMemory::PeekHash — no tree, stats, RNG, clock, or trace access, and no
// writes to any simulated state. After a full join, phase 2 runs serially on the
// calling thread in the exact order the scan cursor produced the pages: each
// snapshot is primed into the frame memo (PrimeHash drops stale snapshots) and
// the engine's unchanged per-page scan body runs, charging simulated latencies
// exactly as the serial reference path does.
//
// Streaming (the decoupled shape; DESIGN.md §14): the join barrier is gone.
// A serial pre-pass on the calling thread performs the resolve/filter
// steps (they read pre-merge state, so they cannot overlap the merge) and
// records each page's pre-merge content generation. Workers then hash fixed-size
// chunks concurrently *with the merge*, holding PhysicalMemory's scan gate
// shared (content mutators take it exclusive), and publish completion through
// the pool's ticket-ordered stream: chunk k is consumable once chunks 0..k are
// done. The calling thread consumes ready items in canonical order, helping to
// hash unclaimed chunks whenever it runs ahead of the workers. Hashing is
// speculative — the merge may mutate a frame before its chunk is consumed — so
// a snapshot is installed into the memo only when its generation still equals
// BOTH the recorded pre-merge generation (so streaming never installs a memo
// the barrier shape would not have: memo validity is serialized in savestates)
// AND the frame's live generation (PrimeHash's own staleness check). A dropped
// snapshot costs host time only: the merge body recomputes the hash on demand,
// charging identical simulated latencies. Conflicts are counted in ScanTiming.
//
// Either way, simulated stats, traces, and charged timestamps are bit-identical
// for every thread count, chunk size, and streaming setting; see DESIGN.md,
// "Parallel host, serial sim" and §14.

#ifndef VUSION_SRC_HOST_PARALLEL_SCAN_H_
#define VUSION_SRC_HOST_PARALLEL_SCAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/host/thread_pool.h"
#include "src/mmu/address_space.h"
#include "src/phys/physical_memory.h"

namespace vusion {

class Process;

namespace host {

// One page selected for a wake quantum. The engine fills the identity fields at
// collection time; phase 1 (or the streaming pre-pass + workers) fills
// frame/snapshot; the merge hands the item back to the engine's callback.
struct ScanItem {
  Process* process = nullptr;       // engine cookie; filters may read it (immutable fields only)
  const AddressSpace* as = nullptr; // PTE resolution target; null if frame is preset
  std::uint32_t pid = 0;            // process id, valid even after the process dies
  Vpn vpn = 0;
  bool wrapped = false;             // cursor completed a full round before this page
  std::size_t index = 0;            // engine cookie (e.g. candidate array position)
  FrameId frame = kInvalidFrame;    // preset by the engine, or resolved pre-merge
  PhysicalMemory::HashSnapshot snapshot{};
  // Frame content generation observed before any of this batch's merging, the
  // determinism fence for speculative hashing: a snapshot taken at any other
  // generation is never primed into the memo.
  std::uint64_t premerge_gen = 0;
  bool hashed = false;
};

// Host wall-clock accounting for the scan sections, exposed so benches can
// report scan-only throughput, project the parallel critical path
// (phase1_cpu_ns / thread count), and measure pipeline overlap
// (1 - scan_wall / (phase1_wall + merge_wall) > 0 only when hashing and
// merging actually overlapped).
struct ScanTiming {
  std::uint64_t batches = 0;
  std::uint64_t scan_ns = 0;          // whole scan section (collection + both phases)
  std::uint64_t phase1_cpu_ns = 0;    // aggregate time inside hash chunks (sums across threads)
  std::uint64_t phase1_wall_ns = 0;   // span from hash start to last chunk completion
  std::uint64_t merge_wall_ns = 0;    // serial merge work (excludes streaming waits)
  std::uint64_t items = 0;            // pages pushed through the pipeline
  std::uint64_t speculative_hashes = 0;  // snapshots taken by hash workers
  std::uint64_t speculative_stale = 0;   // ...dropped because the merge got there first
  std::uint64_t streamed_batches = 0;    // batches that ran the decoupled shape
};

class ParallelScanPipeline {
 public:
  // pool may be null (or single-threaded); phase 1 then runs inline on the caller,
  // which is the degenerate-but-identical form of the same pipeline.
  ParallelScanPipeline(PhysicalMemory& memory, ThreadPool* pool)
      : memory_(&memory), pool_(pool) {}

  // The pool can move between runs (e.g. a Machine adopted into a Fleet shares
  // the fleet pool); engines refresh it at the top of every wake.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] ThreadPool* pool() const { return pool_; }

  // Streaming shape toggle + chunk size in pages (0 = auto). Both host-only:
  // simulated results are identical either way.
  void ConfigureStreaming(bool enabled, std::size_t chunk_pages) {
    streaming_enabled_ = enabled;
    chunk_pages_ = chunk_pages;
  }

  // Engine-supplied predicate deciding whether a resolved page is worth
  // hashing. Runs on worker threads in the barrier shape and on the calling
  // thread (pre-merge) in the streaming shape: it MUST only read state that no
  // merge code is concurrently mutating at evaluation time and must not write
  // anything. Null = hash every present page.
  using Phase1Filter = std::function<bool(const Pte&, const ScanItem&)>;

  // Runs the pipeline over `items` and invokes merge_one(item) serially for
  // every item, in order. Chunk/merge timing is accumulated into `timing` (the
  // engine wraps the whole scan section for scan_ns itself).
  // `between_phases`, when set, fires on the calling thread after all hashing
  // completed and before the first merge — the engine uses it to announce the
  // kHashed scan-phase boundary (a hook there may tear down processes, so the
  // engine's merge body re-validates each item). A non-null between_phases
  // forces the barrier shape: the boundary it announces only exists there.
  void Run(std::vector<ScanItem>& items, ScanTiming& timing,
           const Phase1Filter& filter,
           const std::function<void(ScanItem&)>& merge_one,
           const std::function<void()>& between_phases = nullptr);

 private:
  // Resolves the page's frame through the const PTE walk and the filter,
  // unless the engine preset it; false if the page is absent or filtered out.
  bool Resolve(ScanItem& item, const Phase1Filter& filter) const;
  void ResolveAndPeek(ScanItem& item, const Phase1Filter& filter) const;
  // Resolve/filter only (no hash); records premerge_gen. The streaming
  // pre-pass form of phase 1's serial-state reads.
  void ResolvePreMerge(ScanItem& item, const Phase1Filter& filter) const;
  void RunBarrier(std::vector<ScanItem>& items, ScanTiming& timing,
                  const Phase1Filter& filter,
                  const std::function<void(ScanItem&)>& merge_one,
                  const std::function<void()>& between_phases);
  void RunStreaming(std::vector<ScanItem>& items, ScanTiming& timing,
                    const Phase1Filter& filter,
                    const std::function<void(ScanItem&)>& merge_one);
  // Primes a hashed item's snapshot (conflict-checked) and counts it, then
  // hands the item to the engine. Shared by both shapes.
  void MergeOne(ScanItem& item, ScanTiming& timing,
                const std::function<void(ScanItem&)>& merge_one);

  PhysicalMemory* memory_;
  ThreadPool* pool_;
  bool streaming_enabled_ = false;
  std::size_t chunk_pages_ = 0;  // 0 = auto
};

}  // namespace host
}  // namespace vusion

#endif  // VUSION_SRC_HOST_PARALLEL_SCAN_H_
