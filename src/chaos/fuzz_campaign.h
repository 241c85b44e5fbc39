// Seed-based chaos fuzzing campaigns: run a randomized multi-process workload
// (map/write/read/idle/unmap/prefetch/fork/teardown churn) against a fusion
// engine with fault injection enabled, auditing machine-wide invariants as it
// goes. Everything is a pure function of the 64-bit campaign seed — the fault
// schedule is derived from the seed's RNG and recorded as (site, visit) pairs,
// never wall-clock — so any failure replays byte-for-byte from the printed
// repro command, and a failing schedule can be shrunk by bisection while
// preserving replay.

#ifndef VUSION_SRC_CHAOS_FUZZ_CAMPAIGN_H_
#define VUSION_SRC_CHAOS_FUZZ_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/fusion/engine_factory.h"

namespace vusion {

struct CampaignOptions {
  EngineKind engine = EngineKind::kVUsion;
  std::uint64_t seed = 1;
  std::size_t steps = 400;        // workload events per campaign
  std::size_t scan_threads = 1;   // engine scan pipeline width
  double fault_rate = 0.01;       // per-visit injection probability, all sites
  std::size_t audit_epoch = 1;    // audit every N events (1 = slow mode)
  bool shrink = true;             // minimize the schedule on failure
  std::string artifact_dir;       // dump trace+metrics here on failure ("" = off)
  // Periodic savestate checkpoints every N workload events (0 = off). On a
  // failure the campaign replays the tail from the nearest pre-failure
  // checkpoint to verify it reproduces the identical violation, and dumps
  // that checkpoint next to the other artifacts.
  std::size_t snapshot_interval = 0;
  // Replay mode: fire exactly this schedule instead of drawing from the RNG.
  bool use_schedule = false;
  std::vector<FaultRecord> schedule;
};

struct CampaignResult {
  bool ok = true;
  std::size_t failed_step = 0;  // workload event index of the first violation
  std::vector<std::string> violations;
  std::vector<FaultRecord> schedule;         // injected faults, in firing order
  std::vector<FaultRecord> shrunk_schedule;  // minimal failing subset
  std::string repro;                         // exact CLI replay command
  std::uint64_t audits = 0;
  std::uint64_t checks = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t tolerated_throws = 0;  // retry-limit aborts survived gracefully
  // --- Savestate checkpointing (snapshot_interval > 0) ---
  std::size_t snapshots_taken = 0;
  bool has_nearest_snapshot = false;
  std::size_t nearest_snapshot_step = 0;  // last checkpoint at/before the failure
  // True when restoring that checkpoint and replaying the tail reproduced the
  // identical violation at the identical step.
  bool restore_to_failure_ok = false;
  std::string snapshot_path;  // dumped .vsnap (with artifact_dir set)
};

// The engine token accepted by the chaos_fuzz CLI (`--engine`), also used when
// printing repro commands. Returns nullptr for an unknown token.
const char* CampaignEngineToken(EngineKind kind);
bool ParseCampaignEngine(const std::string& token, EngineKind& kind);

// The `--threads` value of the chaos_fuzz and savestate CLIs: a decimal scan
// thread count no larger than host::ThreadPool::kMaxThreads. Returns false for
// anything else, so the tools reject it while parsing, before a Machine (and
// its thread pool) exists.
bool ParseScanThreads(const std::string& token, std::size_t& threads);

class FuzzCampaign {
 public:
  explicit FuzzCampaign(CampaignOptions options) : options_(std::move(options)) {}

  // Runs one campaign; on an invariant failure with shrink enabled, replays
  // bisected sub-schedules (bounded) to minimize it. Deterministic per options.
  CampaignResult Run();

 private:
  CampaignResult RunOnce(const std::vector<FaultRecord>* schedule,
                         bool dump_artifacts);
  std::vector<FaultRecord> ShrinkSchedule(const std::vector<FaultRecord>& failing);
  [[nodiscard]] std::string ReproCommand(const std::vector<FaultRecord>* schedule) const;

  CampaignOptions options_;
};

}  // namespace vusion

#endif  // VUSION_SRC_CHAOS_FUZZ_CAMPAIGN_H_
