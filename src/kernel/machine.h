// The simulated machine: physical memory, allocators, cache and DRAM hierarchy,
// processes/VMs, the timed memory-access path, the page-fault dispatcher, and the
// daemon scheduler. This is the "host kernel + hardware" every fusion engine,
// attack, and workload runs on.

#ifndef VUSION_SRC_KERNEL_MACHINE_H_
#define VUSION_SRC_KERNEL_MACHINE_H_

#include <memory>
#include <vector>

#include "src/cache/llc.h"
#include "src/chaos/fault_injector.h"
#include "src/dram/rowhammer.h"
#include "src/kernel/daemon.h"
#include "src/kernel/sharing_policy.h"
#include "src/mmu/address_space.h"
#include "src/phys/buddy_allocator.h"
#include "src/sim/latency_model.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "src/sim/rng.h"

namespace vusion {

namespace host {
class ThreadPool;
}  // namespace host

class Process;
class Khugepaged;
struct KhugepagedConfig;

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

struct MachineConfig {
  FrameId frame_count = 1u << 16;  // 256 MB of simulated physical memory
  CacheConfig cache;
  // Private first-level cache (32 KB, 8-way by default) in front of the LLC.
  CacheConfig l1_cache{.line_size = 64, .ways = 8, .sets = 64};
  DramConfig dram;
  LatencyConfig latency;
  std::uint64_t seed = 42;

  // Why the caches cannot key a line of every frame, or nullptr if they
  // can (CacheConfig::max_frames; the geometries must be valid). Machine
  // construction throws std::invalid_argument on it, and snapshot config
  // decoding fails with "config".
  [[nodiscard]] const char* CacheKeyError() const;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- Components ---

  [[nodiscard]] VirtualClock& clock() { return clock_; }
  [[nodiscard]] LatencyModel& latency() { return *latency_; }
  [[nodiscard]] PhysicalMemory& memory() { return *memory_; }
  [[nodiscard]] BuddyAllocator& buddy() { return *buddy_; }
  [[nodiscard]] Llc& llc() { return *llc_; }
  [[nodiscard]] Llc& l1() { return *l1_; }
  [[nodiscard]] DramMapping& dram_mapping() { return *dram_mapping_; }
  [[nodiscard]] RowBuffer& row_buffer() { return *row_buffer_; }
  [[nodiscard]] RowhammerEngine& rowhammer() { return *rowhammer_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] TraceBuffer& trace() { return trace_; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }

  // --- Chaos (deterministic fault injection; see src/chaos/) ---

  // Installs a fault injector (probabilistic mode) and wires it into the buddy
  // allocator. Engines pick it up at their next Run(). Null until enabled, and
  // every injection site no-ops on null, so chaos-off runs are bit-identical.
  FaultInjector& EnableChaos(const ChaosConfig& config);
  // Replay mode: exactly the given (site, visit) schedule fires.
  FaultInjector& EnableChaosWithSchedule(const ChaosConfig& config,
                                         const std::vector<FaultRecord>& schedule);
  [[nodiscard]] FaultInjector* chaos() { return chaos_.get(); }

  // Lazily-created host worker pool for the streaming scan pipeline (host-side
  // wall-clock machinery only; never touches simulated state). Returns null for
  // threads<=1 — the serial reference path. The pool is shared by all engines on
  // this machine and replaced by a larger one if a later caller asks for more
  // threads; it is joined and destroyed with the machine.
  host::ThreadPool* HostPool(std::size_t threads);

  // --- Processes ---

  Process& CreateProcess();
  // fork(): the child gets a copy of the parent's address space. Plain private
  // pages are shared copy-on-write (both sides lose write permission; the kernel
  // frame refcount tracks the sharers). Fusion-managed and huge mappings are
  // copied eagerly, keeping the engines' ownership model untangled from fork's.
  Process& ForkProcess(Process& parent);
  // Tears a process down (VM shutdown): every mapping is released through the
  // fusion-aware unmap path, the sharing policy drops its references, and the
  // process slot becomes null (ids are never reused).
  void DestroyProcess(Process& process);
  // Entries may be null after DestroyProcess.
  [[nodiscard]] const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }

  // --- Fusion policy & daemons ---

  void SetSharingPolicy(SharingPolicy* policy) { policy_ = policy; }
  [[nodiscard]] SharingPolicy* sharing_policy() { return policy_; }
  void AddDaemon(Daemon* daemon) {
    daemons_.push_back(daemon);
    DaemonDeadlinesMoved();
  }
  void RemoveDaemon(Daemon* daemon);
  // Enables the khugepaged daemon (off by default; benches opt in per config).
  Khugepaged& EnableKhugepaged(const KhugepagedConfig& config);
  [[nodiscard]] Khugepaged* khugepaged() { return khugepaged_.get(); }

  // Runs every daemon whose deadline has passed. Called automatically after each
  // timed access and throughout Idle(). Inline: most calls find no daemon due
  // and cost one compare against the cached earliest deadline.
  void RunDueDaemons() {
    if (clock_.now() >= next_daemon_due_) {
      RunDueDaemonsSlow();
    }
  }

  // Must be called whenever a registered daemon's deadline may have moved
  // earlier outside its own Run() (snapshot restore sets deadlines after
  // Install). Drops the cached earliest deadline, so the next RunDueDaemons
  // rescans every daemon.
  void DaemonDeadlinesMoved() { next_daemon_due_ = 0; }

  // Advances virtual time, running daemons at their deadlines. Called from
  // inside a daemon (a phase hook, say), it advances the clock by `duration`
  // without running any daemon: daemons do not re-enter.
  void Idle(SimTime duration);

  // --- Timed memory access path (used by Process) ---

  struct AccessResult {
    SimTime latency = 0;
    std::uint64_t value = 0;
    std::size_t faults = 0;
  };

  AccessResult Access(Process& process, VirtAddr vaddr, AccessType type,
                      std::uint64_t write_value);
  void Prefetch(Process& process, VirtAddr vaddr);
  void FlushCacheLine(Process& process, VirtAddr vaddr);

  // Unmaps vpn and releases the backing frame (consulting the sharing policy for
  // managed pages). Untimed; used by setup paths and the page cache eviction.
  void UnmapAndFree(Process& process, Vpn vpn);

  // Evicts every cached line of the frame from all cache levels (done whenever a
  // frame changes owner or is freed).
  void FlushFrame(FrameId frame);

  // --- Stats ---

  [[nodiscard]] std::uint64_t total_faults() const { return total_faults_; }
  [[nodiscard]] std::uint64_t CountHugeMappings() const;

  // --- Telemetry (host-side observation; never touches simulated state) ---

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  // Harvests every pull-side component counter (caches, DRAM, allocators,
  // khugepaged, trace) into the registry and returns a snapshot. Push-side
  // metrics (the fault path) are always current.
  MetricsSnapshot CollectMetrics();

  // Host-memory footprint of this Machine's dominant per-instance structures
  // (for fleet-scale frugality reporting; host-side observation only). The
  // fixed components (frame table, caches, trace ring) are lazily allocated, so
  // an idle booted Machine's footprint is mostly its materialized page content.
  struct Footprint {
    std::size_t frame_table_bytes = 0;   // Frame metadata array
    std::size_t materialized_bytes = 0;  // committed page-content buffers
    std::size_t cache_bytes = 0;         // LLC + L1 line arrays and counters
    std::size_t trace_bytes = 0;         // trace ring (zero unless tracing)
    [[nodiscard]] std::size_t total_bytes() const {
      return frame_table_bytes + materialized_bytes + cache_bytes + trace_bytes;
    }
  };
  [[nodiscard]] Footprint MeasureFootprint() const;

  // --- Savestates (DESIGN.md §13) ---
  //
  // Serializes every piece of deterministic machine state (clock, RNG streams,
  // frames, allocators, caches, DRAM counters, page tables, TLBs, trace ring,
  // metrics, chaos schedule, khugepaged) as a run of named snapshot sections.
  // Host-only machinery (worker pools, memos) is never serialized; Restore
  // rebuilds it lazily. Restore must be called on a freshly booted Machine
  // constructed from the snapshot's recorded MachineConfig, with the engine
  // already installed (the orchestrator in src/snapshot/machine_snapshot.h does
  // all of this); it throws snapshot::RestoreError on any corruption, leaving
  // no silent partial state behind.
  void Save(snapshot::SnapshotWriter& w);
  void Restore(snapshot::SnapshotReader& r);
  // Drops every process's page-table nodes without freeing their frames. A
  // failed restore calls it before discarding the Machine, whose allocator
  // may hold a half-restored state that frees would corrupt.
  void ForgetPageTableFrames();

 private:
  friend class Process;

  // kTransient: an allocation failed while free frames remain (injected OOM);
  // the fault is left unresolved so the access path retries it.
  enum class DefaultFaultOutcome { kUnhandled, kDemandZero, kCow, kTransient };

  // Charges fault entry cost and dispatches to the policy, then the default
  // handler. Throws std::runtime_error on an unresolvable fault.
  void HandleFault(Process& process, const PageFault& fault);
  DefaultFaultOutcome HandleFaultDefault(Process& process, const PageFault& fault);
  void ChargedDataAccess(const Pte& pte, PhysAddr paddr);
  // RunDueDaemons' loop: runs due daemons until none is due, then caches the
  // earliest deadline.
  void RunDueDaemonsSlow();

  MachineConfig config_;
  VirtualClock clock_;
  Rng rng_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<PhysicalMemory> memory_;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::unique_ptr<Llc> llc_;
  std::unique_ptr<Llc> l1_;
  std::unique_ptr<DramMapping> dram_mapping_;
  std::unique_ptr<RowBuffer> row_buffer_;
  std::unique_ptr<RowhammerEngine> rowhammer_;
  std::vector<std::unique_ptr<Process>> processes_;
  SharingPolicy* policy_ = nullptr;
  std::vector<Daemon*> daemons_;
  // Earliest next_run() over daemons_ as of the last RunDueDaemonsSlow. It may
  // be stale-low (a deadline moved later, or a daemon left), which costs one
  // extra pass over the daemons; it is never stale-high, because every change
  // outside RunDueDaemonsSlow that can move a deadline earlier resets it to 0
  // (DaemonDeadlinesMoved).
  SimTime next_daemon_due_ = 0;
  std::unique_ptr<Khugepaged> khugepaged_;
  std::unique_ptr<host::ThreadPool> host_pool_;
  std::unique_ptr<FaultInjector> chaos_;
  TraceBuffer trace_;
  std::uint64_t total_faults_ = 0;
  bool in_daemon_ = false;  // prevents daemon re-entry from daemon-issued work

  // Fault-path metric handles, pre-registered in the constructor so the hot path
  // is a pointer deref and an add (see src/sim/metrics.h).
  MetricsRegistry metrics_;
  Counter* fault_count_policy_ = nullptr;
  Counter* fault_count_demand_zero_ = nullptr;
  Counter* fault_count_cow_ = nullptr;
  Counter* fault_count_unresolved_ = nullptr;
  Counter* fault_count_transient_ = nullptr;
  Counter* fault_count_spurious_ = nullptr;
  HistogramMetric* fault_latency_policy_ = nullptr;
  HistogramMetric* fault_latency_demand_zero_ = nullptr;
  HistogramMetric* fault_latency_cow_ = nullptr;
};

}  // namespace vusion

#endif  // VUSION_SRC_KERNEL_MACHINE_H_
