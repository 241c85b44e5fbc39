#include "src/host/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <shared_mutex>
#include <thread>

#include "src/host/clock.h"

namespace vusion::host {

namespace {

// Hash chunk size cap: small enough that the merge starts long before hashing
// finishes, large enough that the per-chunk claim/publish cost and the
// scan-gate acquisition amortize. Smaller batches use a quarter of the batch.
constexpr std::size_t kMaxChunkPages = 32;

void MaxRelaxed(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void ParallelScanPipeline::ResolvePreMerge(ScanItem& item, const Phase1Filter& filter) const {
  if (item.frame == kInvalidFrame) {
    if (item.as == nullptr) {
      return;
    }
    const Pte* pte = item.as->GetPte(item.vpn);
    if (pte == nullptr || !pte->present() || (filter && !filter(*pte, item))) {
      return;
    }
    item.frame = pte->frame;
    if (pte->huge()) {
      item.frame += static_cast<FrameId>(item.vpn & (kPagesPerHugePage - 1));
    }
  }
  item.premerge_gen = memory_->content_generation(item.frame);
}

void ParallelScanPipeline::Run(ThreadPool& pool, std::vector<ScanItem>& items,
                               ScanTiming& timing, const Phase1Filter& filter,
                               const std::function<void(ScanItem&)>& merge_one) {
  // Serial pre-pass: PTE-resolve, filter, and pre-merge generation capture
  // all read the batch's pre-merge state — they cannot overlap the merge, but
  // they are cheap relative to hashing, which is all the workers do.
  const std::uint64_t prepass_start = NowNs();
  for (ScanItem& item : items) {
    ResolvePreMerge(item, filter);
  }
  const std::uint64_t prepass_ns = NowNs() - prepass_start;

  std::atomic<std::uint64_t> hash_cpu{0};
  std::atomic<std::uint64_t> hash_last_end{0};
  const auto hash_chunk = [&](std::size_t begin, std::size_t end) {
    const std::uint64_t t0 = NowNs();
    {
      // Shared hold for the whole chunk: content mutators (exclusive) are
      // fenced out, so each peeked {content, generation} pair is consistent.
      std::shared_lock<std::shared_mutex> gate(memory_->scan_gate());
      for (std::size_t i = begin; i < end; ++i) {
        ScanItem& item = items[i];
        if (item.frame == kInvalidFrame) {
          continue;  // not present, or filtered out pre-merge
        }
        item.snapshot = memory_->PeekHash(item.frame);
        item.hashed = true;
      }
    }
    const std::uint64_t t1 = NowNs();
    hash_cpu.fetch_add(t1 - t0, std::memory_order_relaxed);
    MaxRelaxed(hash_last_end, t1);
  };

  const std::size_t chunk =
      std::min(kMaxChunkPages, std::max<std::size_t>(1, items.size() / 4));

  memory_->BeginStreamingScan();
  ThreadPool::Stream* stream = pool.BeginStream(items.size(), chunk, hash_chunk);
  std::exception_ptr merge_error;
  std::uint64_t merge_wall = 0;
  try {
    std::size_t next = 0;
    std::size_t ready = 0;
    while (next < items.size()) {
      if (next >= ready) {
        ready = pool.StreamReadyItems(stream);
        if (next >= ready) {
          // Ahead of the workers: hash an unclaimed chunk ourselves, or spin
          // briefly on a chunk already in flight elsewhere.
          if (!pool.HelpStream(stream)) {
            std::this_thread::yield();
          }
          continue;
        }
      }
      // Consume the contiguously-ready prefix in canonical order. merge_wall
      // accumulates only these segments — actual serial merge work, not the
      // waits — so overlap efficiency compares true hash and merge costs.
      const std::uint64_t m0 = NowNs();
      for (; next < ready; ++next) {
        ScanItem& item = items[next];
        if (item.hashed) {
          ++timing.speculative_hashes;
          // Conflict check: prime only a snapshot taken at the pre-merge
          // generation that is also still current. A mismatch means the merge
          // mutated the frame around the speculative hash; the snapshot is
          // dropped and the engine body rehashes on demand.
          if (item.snapshot.content_gen != item.premerge_gen ||
              !memory_->PrimeHash(item.frame, item.snapshot)) {
            ++timing.speculative_stale;
          }
        }
        merge_one(item);
      }
      merge_wall += NowNs() - m0;
    }
  } catch (...) {
    merge_error = std::current_exception();
  }
  try {
    pool.JoinStream(stream);
  } catch (...) {
    if (merge_error == nullptr) {
      merge_error = std::current_exception();
    }
  }
  memory_->EndStreamingScan();

  timing.phase1_cpu_ns += prepass_ns + hash_cpu.load(std::memory_order_relaxed);
  timing.items += items.size();
  const std::uint64_t last_end = hash_last_end.load(std::memory_order_relaxed);
  // Wall span of phase-1 work: pre-pass start through the last chunk
  // completion (zero hashed chunks leave last_end at 0 → count the pre-pass).
  timing.phase1_wall_ns +=
      last_end > prepass_start ? last_end - prepass_start : NowNs() - prepass_start;
  timing.merge_wall_ns += merge_wall;

  if (merge_error != nullptr) {
    std::rethrow_exception(merge_error);
  }
}

}  // namespace vusion::host
