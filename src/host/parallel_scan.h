// Deterministic streaming scan pipeline shared by the fusion engines
// (DESIGN.md §14). Simulated results are bit-identical to the serial scan body
// at every thread count and batch size.
//
// A serial pre-pass on the calling thread performs the resolve/filter steps
// (they read pre-merge state, so they cannot overlap the merge) and records
// each page's pre-merge content generation. Workers then hash fixed-size
// chunks concurrently *with the merge*, holding PhysicalMemory's scan gate
// shared (content mutators take it exclusive), and publish completion through
// the pool's ticket-ordered stream: chunk k is consumable once chunks 0..k are
// done. The calling thread consumes ready items in canonical order, running
// the engine's unchanged per-page scan body and helping to hash unclaimed
// chunks whenever it runs ahead of the workers. Hashing is speculative — the
// merge may mutate a frame before its chunk is consumed — so a snapshot is
// installed into the memo only when its generation still equals BOTH the
// recorded pre-merge generation (so the installed-memo set depends only on
// config and simulated state, never on the interleaving: memo validity is
// serialized in savestates) AND the frame's live generation (PrimeHash's own
// staleness check). A dropped snapshot costs host time only: the merge body
// recomputes the hash on demand, charging identical simulated latencies.
// Conflicts are counted in ScanTiming.

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
// collection time; the pre-pass and the hash workers fill frame/snapshot; the
// merge hands the item back to the engine's callback.
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
  std::uint64_t scan_ns = 0;          // whole scan section (collection + pipeline)
  std::uint64_t phase1_cpu_ns = 0;    // pre-pass plus aggregate time inside hash chunks
  std::uint64_t phase1_wall_ns = 0;   // span from pre-pass start to last chunk completion
  std::uint64_t merge_wall_ns = 0;    // serial merge work (excludes streaming waits)
  std::uint64_t items = 0;            // pages pushed through the pipeline
  std::uint64_t speculative_hashes = 0;  // snapshots taken by hash workers
  std::uint64_t speculative_stale = 0;   // ...dropped because the merge got there first
};

class ParallelScanPipeline {
 public:
  explicit ParallelScanPipeline(PhysicalMemory& memory) : memory_(&memory) {}

  // Engine-supplied predicate deciding whether a resolved page is worth
  // hashing. Runs on the calling thread in the pre-pass, before any merge: it
  // must not write anything. Null = hash every present page.
  using Phase1Filter = std::function<bool(const Pte&, const ScanItem&)>;

  // Streams `items` through `pool` and invokes merge_one(item) serially on the
  // calling thread for every item, in order. Hash chunks hold
  // min(32, max(1, items/4)) pages. Chunk/merge timing is accumulated into
  // `timing` (the engine wraps the whole scan section for scan_ns itself).
  void Run(ThreadPool& pool, std::vector<ScanItem>& items, ScanTiming& timing,
           const Phase1Filter& filter, const std::function<void(ScanItem&)>& merge_one);

 private:
  // Resolves the page's frame through the const PTE walk and the filter,
  // unless the engine preset it, and records premerge_gen. Leaves frame
  // invalid if the page is absent or filtered out.
  void ResolvePreMerge(ScanItem& item, const Phase1Filter& filter) const;

  PhysicalMemory* memory_;
};

}  // namespace host
}  // namespace vusion

#endif  // VUSION_SRC_HOST_PARALLEL_SCAN_H_
