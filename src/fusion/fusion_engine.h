// Abstract base for the three page-fusion engines (KSM, WPF, VUsion). An engine is
// both a kernel daemon (the scanner thread) and a sharing policy (fault handling,
// unmap bookkeeping, khugepaged gating).

#ifndef VUSION_SRC_FUSION_FUSION_ENGINE_H_
#define VUSION_SRC_FUSION_FUSION_ENGINE_H_

#include <functional>

#include "src/chaos/audit.h"
#include "src/fusion/fusion_stats.h"
#include "src/host/parallel_scan.h"
#include "src/kernel/daemon.h"
#include "src/kernel/machine.h"
#include "src/kernel/sharing_policy.h"

namespace vusion {

// Boundaries inside one scan wake-up at which the outside world (chaos
// campaigns, tests) may intervene — e.g. tear down a VM mid-scan. Engines
// announce each boundary through the phase hook; after kBatchCollected and
// kHashed the engine re-validates its batch against the live process table, so
// a hook destroying a process is safe at every announced point. Every engine
// announces kQuantumStart and kQuantumEnd. kBatchCollected comes from WPF and
// from the streaming pipeline of KSM and VUsion (scan_threads > 1); kHashed is
// WPF-only, because KSM and VUsion hash while they merge.
enum class ScanPhase : std::uint8_t {
  kQuantumStart,    // wake-up began, nothing collected yet
  kBatchCollected,  // candidate batch chosen, before hashing
  kHashed,          // WPF: content hashed, before any merge decision
  kQuantumEnd,      // wake-up finished, state quiescent
};

const char* ScanPhaseName(ScanPhase phase);

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class FusionEngine : public Daemon, public SharingPolicy {
 public:
  // Construction is pure: the config is taken as given, with no environment
  // reads. Callers wanting env overrides (VUSION_SCAN_THREADS) go through
  // FusionConfig::ApplyEnvOverrides — MakeEngine and Scenario apply it for you.
  FusionEngine(Machine& machine, const FusionConfig& config)
      : machine_(&machine), config_(config) {}
  ~FusionEngine() override = default;

  [[nodiscard]] virtual const char* name() const = 0;

  // Physical frames currently saved by sharing: sum over shared copies of
  // (sharers - 1). The memory-consumption figures plot allocated - saved.
  [[nodiscard]] virtual std::uint64_t frames_saved() const = 0;

  // Frames the engine holds in reserve (VUsion's entropy pool); subtracted when
  // reporting guest memory consumption.
  [[nodiscard]] virtual std::size_t reserved_frames() const { return 0; }

  // Registers this engine as the machine's sharing policy and daemon.
  void Install() {
    machine_->SetSharingPolicy(this);
    machine_->AddDaemon(this);
  }
  void Uninstall() {
    machine_->SetSharingPolicy(nullptr);
    machine_->RemoveDaemon(this);
  }

  // Breaks every (fake) merge the engine holds by unregistering all mergeable
  // ranges, leaving plain private pages behind. This is the safe hand-off point
  // for replacing one fusion system with another on a live machine (e.g. deploying
  // VUsion where KSM was running).
  void TearDown();

  [[nodiscard]] SimTime next_run() const override { return next_run_; }

  // --- sysfs-style runtime controls (/sys/kernel/mm/ksm/{run,sleep_millisecs,
  // pages_to_scan} equivalents) ---

  // Adjusts the scan rate at runtime.
  void SetScanRate(SimTime wake_period, std::size_t pages_per_wake) {
    config_.wake_period = wake_period;
    config_.pages_per_wake = pages_per_wake;
  }
  // run=0: the scanner stops; existing merges stay in place and fault normally.
  void Pause() { paused_ = true; }
  void Resume() { paused_ = false; }
  [[nodiscard]] bool paused() const { return paused_; }

  [[nodiscard]] FusionStats& stats() { return stats_; }
  [[nodiscard]] const FusionStats& stats() const { return stats_; }
  [[nodiscard]] const FusionConfig& config() const { return config_; }
  [[nodiscard]] Machine& machine() { return *machine_; }

  // Host wall-clock accounting of the engine's scan sections (null for engines
  // without a scan loop). Benches use it for scan-only throughput numbers.
  [[nodiscard]] virtual const host::ScanTiming* scan_timing() const { return nullptr; }

  // Bridges FusionStats (and any engine-specific state) into a metrics registry,
  // usually the machine's. Overrides must call the base first.
  virtual void ExportMetrics(MetricsRegistry& registry) const;

  // Observation hook fired at every ScanPhase boundary of every wake-up. The
  // callback may mutate the machine (destroy processes, unmap pages); the
  // engine re-validates afterwards. Null (the default) costs nothing.
  using PhaseHook = std::function<void(FusionEngine&, ScanPhase)>;
  void SetPhaseHook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  // Engine-specific invariants for the machine-wide auditor: every internal
  // structure (stable tree, rmap, sharer lists, pool, deferred queue) must agree
  // with the page tables and frame refcounts. Engines claim their reserve
  // frames via ctx.OwnFrame. Default: no engine-private state to check.
  virtual void AuditInvariants(AuditContext& ctx) const { (void)ctx; }

  // --- Savestates (DESIGN.md §13) ---
  //
  // Engines that can serialize their full deterministic state override all
  // three. RestoreState must be called on a freshly constructed engine of the
  // same kind and config, installed on the target Machine, after the Machine's
  // own state has been restored. The base defaults fail closed with a
  // RestoreError so an unsupported engine (MemoryCombining) can never produce
  // a silently empty snapshot.
  [[nodiscard]] virtual bool SupportsSnapshot() const { return false; }
  virtual void SaveState(snapshot::SnapshotWriter& w) const;
  virtual void RestoreState(snapshot::SnapshotReader& r);

 protected:
  // FusionStats, the daemon schedule, and the pause flag — shared by every
  // engine serializer (called first by each override).
  void SaveCommon(snapshot::SnapshotWriter& w) const;
  void RestoreCommon(snapshot::SnapshotReader& r);

  void NotifyPhase(ScanPhase phase) {
    if (phase_hook_) {
      // Hooks are arbitrary user code (tests tear processes down, write pages,
      // time accesses mid-scan): settle any batched charges and run the hook
      // with batching paused so everything it triggers — faults, timed reads —
      // sees the exact unbatched clock.
      LatencyModel& lm = machine_->latency();
      const bool was_batching = lm.batching_enabled();
      lm.set_batching_enabled(false);
      phase_hook_(*this, phase);
      lm.set_batching_enabled(was_batching);
    }
  }

  // The machine's fault injector, or null when chaos is off. Engines consult
  // this at their injection sites (scan interruption, merge abort, stale
  // checksum) and re-sync their private allocators' injector pointers.
  [[nodiscard]] FaultInjector* chaos() { return machine_->chaos(); }
  // True when the engine should skip its scan work this wake-up (and reschedule).
  bool SkipWake() {
    if (paused_) {
      next_run_ = machine_->clock().now() + config_.wake_period;
      return true;
    }
    return false;
  }

  Machine* machine_;
  FusionConfig config_;
  FusionStats stats_;
  SimTime next_run_ = 0;
  bool paused_ = false;
  PhaseHook phase_hook_;
};

}  // namespace vusion

#endif  // VUSION_SRC_FUSION_FUSION_ENGINE_H_
