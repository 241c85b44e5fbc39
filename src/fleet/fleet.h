// Fleet: one clock, many machines (see DESIGN.md §12).
//
// A Fleet owns N independent Scenario instances (one Machine + engine + VMs
// each) and steps them in lockstep under one shared virtual clock: fleet time
// advances in fixed quanta, every Machine is advanced to the quantum edge, and
// a deterministic barrier separates quanta. Machines share no mutable state —
// each has its own VirtualClock, Rng, LatencyModel, and TraceBuffer — so the
// host may step any subset of them concurrently without changing a single
// simulated bit. This lifts the "parallel host, serial sim" contract one
// level: host threads parallelize ACROSS Machines here, exactly as the scan
// pipeline parallelizes WITHIN one Machine, and FleetParityTest proves the
// results bit-identical to serial stepping at any thread count.
//
// Scheduling uses host::ThreadPool::ParallelTasks with per-Machine affinity:
// Machine m's home thread is m % host_threads quantum after quantum, so a
// Machine's working set stays warm in one host core's cache while an
// unbalanced quantum still load-balances by stealing.
//
// Memory frugality: same-image VMs across Machines boot from ONE shared
// read-only VmImageTemplate (the seed recipe is computed once, not N times),
// page content stays lazy behind pattern seeds, and the per-Machine fixed
// costs (LLC line array, trace ring) are allocated only on first use — so
// hundreds of booted Machines fit in host RAM. Fleet::CollectFootprint
// reports the measured per-Machine resident overhead.

#ifndef VUSION_SRC_FLEET_FLEET_H_
#define VUSION_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/workload/scenario.h"

namespace vusion::host {
class ThreadPool;
}  // namespace vusion::host

namespace vusion::fleet {

struct FleetConfig {
  std::size_t machine_count = 16;
  // Host threads stepping the fleet (1 = serial reference). Overridable via
  // VUSION_FLEET_THREADS; never affects simulated results, only wall-clock.
  std::size_t host_threads = 1;
  // Virtual-clock quantum: every Machine advances exactly this far between
  // barriers. Part of the simulated schedule (NOT a host tuning knob): all
  // daemon work lands at the same virtual timestamps regardless of threads.
  SimTime quantum = 1'000'000;  // 1 ms
  // Per-Machine scenario template. Machine m runs this config with
  // machine.seed offset by m, so siblings see different RNG streams (latency
  // noise, engine randomization) over identical images.
  ScenarioConfig scenario;
  // VMs booted per Machine. VM j of EVERY machine boots the same
  // (image, instance seed) pair from one shared template — cross-Machine
  // duplicates are exactly what fleet-scale fusion studies need — while
  // per-machine RNG streams differentiate the dynamics.
  std::size_t vms_per_machine = 2;
  // Images for the per-Machine VM set; empty = VmImage::CatalogImage(j % 44).
  std::vector<VmImageSpec> images;

  // Applies VUSION_FLEET_THREADS (a positive integer up to
  // host::ThreadPool::kMaxThreads; other values are ignored) to host_threads. The Fleet
  // constructor calls this itself (the environment wins), so callers only need
  // it to inspect the effective value up front.
  void ApplyEnvOverrides();
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] Scenario& member(std::size_t m) { return *members_[m]; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  // Fleet virtual time: every member's clock reads this at each barrier.
  [[nodiscard]] SimTime now() const { return now_; }

  // Boots vms_per_machine VMs into every Machine from shared templates
  // (host-parallel across Machines; untimed setup, deterministic).
  void BootAll();

  // Optional per-quantum workload hook, run on machine m's stepping thread at
  // the start of each of m's quanta, before the Idle that advances its clock.
  // Must touch ONLY machine m's state (the fleet determinism contract).
  using QuantumHook = std::function<void(std::size_t machine, Scenario& member)>;
  void SetQuantumHook(QuantumHook hook) { hook_ = std::move(hook); }

  // Advances fleet time by `duration`, stepping every Machine to each quantum
  // edge with a barrier between quanta (a Machine whose daemon work overran an
  // edge waits out quanta until fleet time catches up). A trailing partial
  // quantum is stepped as-is, so RunFor(d) always advances fleet time by
  // exactly d; member clocks end at >= now(), bit-identically at any thread
  // count.
  void RunFor(SimTime duration);

  // --- Host-side scaling telemetry (never touches simulated state) ---

  // Per-quantum host cost: sum over Machines and max over Machines of the
  // per-Machine step time. projected_ns(T) = sum over quanta of
  // max(sum/T, max) — the barrier makes each quantum's critical path the
  // slower of perfect division and the single slowest Machine.
  struct QuantumCost {
    std::uint64_t sum_ns = 0;
    std::uint64_t max_ns = 0;
  };
  [[nodiscard]] const std::vector<QuantumCost>& quantum_costs() const { return quantum_costs_; }
  [[nodiscard]] double ProjectedRuntimeNs(std::size_t host_threads) const;

  // --- Fleet aggregation ---

  // Rolls up every member's metrics into one snapshot, each entry tagged with
  // a machine-id label ("machine" = decimal index), members in id order.
  [[nodiscard]] MetricsSnapshot CollectMetrics();

  struct FootprintSummary {
    std::size_t machines = 0;
    std::size_t total_bytes = 0;         // sum of per-Machine footprints
    std::size_t max_machine_bytes = 0;   // heaviest member
    std::size_t template_bytes = 0;      // shared boot templates (counted once)
    [[nodiscard]] double mean_machine_bytes() const {
      return machines == 0 ? 0.0 : static_cast<double>(total_bytes) / static_cast<double>(machines);
    }
  };
  [[nodiscard]] FootprintSummary CollectFootprint();

 private:
  void StepMachine(std::size_t m, SimTime quantum);

  FleetConfig config_;
  std::vector<std::unique_ptr<Scenario>> members_;
  std::vector<std::shared_ptr<const VmImageTemplate>> templates_;
  std::unique_ptr<host::ThreadPool> pool_;
  QuantumHook hook_;
  SimTime now_ = 0;
  std::vector<std::uint64_t> step_ns_;  // per-Machine scratch for the current quantum
  std::vector<QuantumCost> quantum_costs_;
};

}  // namespace vusion::fleet

#endif  // VUSION_SRC_FLEET_FLEET_H_
