// ParallelScanPipeline unit tests for the streaming pipeline (DESIGN.md §14),
// at the pipeline level so conflicts can be forced exactly: the merge callback
// mutates the frame of a later, not-yet-consumed item, and the speculative hash
// for that item must be detected as stale and dropped — with the observable
// hash sequence bit-identical to a plain serial HashContent loop.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/host/parallel_scan.h"
#include "src/host/thread_pool.h"
#include "src/phys/physical_memory.h"

namespace vusion::host {
namespace {

constexpr std::size_t kFrames = 64;

// Memory with a distinct pattern in every frame.
void FillFrames(PhysicalMemory& memory) {
  for (std::size_t f = 0; f < kFrames; ++f) {
    memory.FillPattern(static_cast<FrameId>(f), 0x9000 + f);
  }
}

// What an engine body observes: the content hash of each item's frame at its
// canonical merge slot. When `conflict` is set, merging item 0 rewrites the
// LAST item's frame. This is the serial reference: no pool, no speculation.
std::vector<std::uint64_t> SerialHashes(std::size_t count, bool conflict) {
  PhysicalMemory memory(kFrames);
  FillFrames(memory);
  std::vector<std::uint64_t> hashes;
  for (std::size_t i = 0; i < count; ++i) {
    if (conflict && i == 0) {
      memory.WriteU64(static_cast<FrameId>(count - 1), 64, 0xfeedface);
    }
    hashes.push_back(memory.HashContent(static_cast<FrameId>(i)));
  }
  return hashes;
}

struct PipelineRun {
  std::vector<std::uint64_t> hashes;
  ScanTiming timing;
};

// Streams `count` items preset to frames [0, count) (the WPF shape: no PTE
// resolution) through the pipeline, with the same merge body as SerialHashes.
// A batch of at most 7 items hashes in 1-page chunks; 64 items in 16-page
// chunks. Under small chunks the last item is hashed speculatively long before
// its merge slot, so a conflict must be detected and the hash recomputed.
PipelineRun RunPipeline(ThreadPool& pool, std::size_t count, bool conflict) {
  PhysicalMemory memory(kFrames);
  FillFrames(memory);
  ParallelScanPipeline pipeline(memory);
  std::vector<ScanItem> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    items[i].index = i;
    items[i].frame = static_cast<FrameId>(i);
  }
  PipelineRun run;
  const auto merge_one = [&](ScanItem& item) {
    if (conflict && item.index == 0) {
      memory.WriteU64(items.back().frame, 64, 0xfeedface);
    }
    run.hashes.push_back(memory.HashContent(item.frame));
  };
  pipeline.Run(pool, items, run.timing, nullptr, merge_one);
  return run;
}

TEST(ParallelScanPipelineTest, ForcedConflictDetectedAndResultsBitIdentical) {
  ThreadPool pool(4);
  for (const std::size_t count : {kFrames, std::size_t{7}}) {
    const PipelineRun streamed = RunPipeline(pool, count, /*conflict=*/true);
    EXPECT_EQ(streamed.hashes, SerialHashes(count, true)) << "items=" << count;
    // The mutated frame's speculative snapshot is stale no matter when the
    // worker hashed it: taken before the merge write, its live generation
    // moved on (PrimeHash refuses); taken after, its generation no longer
    // matches the recorded pre-merge generation (the determinism fence).
    EXPECT_GE(streamed.timing.speculative_stale, 1u) << "items=" << count;
    EXPECT_EQ(streamed.timing.speculative_hashes, static_cast<std::uint64_t>(count))
        << "items=" << count;
  }
}

TEST(ParallelScanPipelineTest, QuietStreamHasNoStaleSnapshots) {
  ThreadPool pool(4);
  const PipelineRun streamed = RunPipeline(pool, kFrames, /*conflict=*/false);
  EXPECT_EQ(streamed.hashes, SerialHashes(kFrames, false));
  EXPECT_EQ(streamed.timing.speculative_stale, 0u);
  EXPECT_EQ(streamed.timing.speculative_hashes, static_cast<std::uint64_t>(kFrames));
}

TEST(ParallelScanPipelineTest, SingleThreadPoolStreamsViaConsumerHelp) {
  // A pool with no workers: the consumer hashes every chunk itself through
  // HelpStream, so the stream completes without a free worker.
  ThreadPool pool(1);
  const PipelineRun streamed = RunPipeline(pool, kFrames, /*conflict=*/true);
  EXPECT_EQ(streamed.hashes, SerialHashes(kFrames, true));
  EXPECT_EQ(streamed.timing.speculative_hashes, static_cast<std::uint64_t>(kFrames));
  EXPECT_GE(streamed.timing.speculative_stale, 1u);
}

TEST(ParallelScanPipelineTest, EmptyAndSingleItemBatchesStream) {
  ThreadPool pool(4);
  const PipelineRun empty = RunPipeline(pool, 0, /*conflict=*/false);
  EXPECT_TRUE(empty.hashes.empty());
  EXPECT_EQ(empty.timing.items, 0u);
  EXPECT_EQ(empty.timing.speculative_hashes, 0u);

  // One item is one 1-page chunk: hashed by the stream, primed, merged.
  const PipelineRun single = RunPipeline(pool, 1, /*conflict=*/false);
  EXPECT_EQ(single.hashes, SerialHashes(1, false));
  EXPECT_EQ(single.timing.items, 1u);
  EXPECT_EQ(single.timing.speculative_hashes, 1u);
  EXPECT_EQ(single.timing.speculative_stale, 0u);
}

}  // namespace
}  // namespace vusion::host
