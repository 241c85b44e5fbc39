#include "src/fleet/fleet.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "src/host/thread_pool.h"

namespace vusion::fleet {

void FleetConfig::ApplyEnvOverrides() {
  if (const char* env = std::getenv("VUSION_FLEET_THREADS")) {
    const long threads = std::strtol(env, nullptr, 10);
    if (threads > 0 && static_cast<unsigned long>(threads) <= host::ThreadPool::kMaxThreads) {
      host_threads = static_cast<std::size_t>(threads);
    }
  }
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  // Same pattern as the engine factory applying FusionConfig overrides: the
  // environment wins at construction, so CI can force threaded fleet stepping
  // (e.g. the TSan job's VUSION_FLEET_THREADS=4) without touching callers.
  // Tests that pin their own thread counts unset the variable first.
  config_.ApplyEnvOverrides();
  members_.reserve(config_.machine_count);
  for (std::size_t m = 0; m < config_.machine_count; ++m) {
    ScenarioConfig member_config = config_.scenario;
    // Distinct RNG streams per Machine over an otherwise identical config:
    // the fleet analog of distinct hosts running the same software stack.
    member_config.machine.seed = config_.scenario.machine.seed + m;
    members_.push_back(std::make_unique<Scenario>(member_config));
  }
  // The pool steps Machines only. A member with scan_threads > 1 owns its
  // Machine's scan pool, like a standalone Machine (DESIGN.md §12).
  pool_ = std::make_unique<host::ThreadPool>(std::max<std::size_t>(1, config_.host_threads));
}

Fleet::~Fleet() = default;

void Fleet::BootAll() {
  // One template per VM slot, shared read-only by every Machine: the seed
  // recipe (the only eagerly-computed part of a boot) is derived once instead
  // of machine_count times.
  templates_.clear();
  templates_.reserve(config_.vms_per_machine);
  for (std::size_t j = 0; j < config_.vms_per_machine; ++j) {
    const VmImageSpec spec = config_.images.empty()
                                 ? VmImage::CatalogImage(j % VmImage::kCatalogSize)
                                 : config_.images[j % config_.images.size()];
    templates_.push_back(VmImage::ComputeTemplate(spec, 0xf1ee7 + j));
  }
  // Boot is untimed setup touching only the target Machine, so it parallelizes
  // across Machines under the same affinity scheme as stepping.
  const auto boot_one = [this](std::size_t m, std::size_t) {
    for (const auto& tmpl : templates_) {
      members_[m]->BootVm(*tmpl);
    }
  };
  pool_->ParallelTasks(members_.size(), boot_one);
}

void Fleet::StepMachine(std::size_t m, SimTime quantum) {
  if (hook_) {
    hook_(m, *members_[m]);
  }
  // Step to the fleet quantum edge, not by the quantum: daemon work charged at
  // a deadline can push a Machine's clock past the edge, and such a Machine
  // simply waits out subsequent quanta until fleet time catches up — the
  // simulated analog of a host whose scan round overran its period. Keying the
  // target off fleet time (identical at every thread count) keeps per-Machine
  // schedules bit-identical under any host parallelism.
  const SimTime target = now_ + quantum;
  const SimTime current = members_[m]->machine().clock().now();
  if (current < target) {
    members_[m]->RunFor(target - current);
  }
}

void Fleet::RunFor(SimTime duration) {
  SimTime remaining = duration;
  while (remaining > 0) {
    const SimTime quantum = std::min(config_.quantum, remaining);
    const auto step_one = [this, quantum](std::size_t m, std::size_t) {
      StepMachine(m, quantum);
    };
    pool_->ParallelTasks(members_.size(), step_one);
    now_ += quantum;
    remaining -= quantum;
  }
}

MetricsSnapshot Fleet::CollectMetrics() {
  MetricsSnapshot rollup;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    MetricsSnapshot snap = members_[m]->CollectMetrics();
    const std::string id = std::to_string(m);
    rollup.entries.reserve(rollup.entries.size() + snap.entries.size());
    for (MetricsSnapshot::Entry& e : snap.entries) {
      e.labels.emplace_back("machine", id);
      rollup.entries.push_back(std::move(e));
    }
  }
  return rollup;
}

Fleet::FootprintSummary Fleet::CollectFootprint() {
  FootprintSummary summary;
  summary.machines = members_.size();
  for (const auto& member : members_) {
    const Machine::Footprint fp = member->machine().MeasureFootprint();
    summary.total_bytes += fp.total_bytes();
    summary.max_machine_bytes = std::max(summary.max_machine_bytes, fp.total_bytes());
  }
  for (const auto& tmpl : templates_) {
    summary.template_bytes += tmpl->resident_bytes();
  }
  return summary;
}

}  // namespace vusion::fleet
