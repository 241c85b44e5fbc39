#include "src/workload/scenario.h"

namespace vusion {

Json Describe(const ScenarioConfig& config) {
  Json machine = Json::Object();
  machine.Set("frame_count", config.machine.frame_count);
  machine.Set("memory_mb", config.machine.frame_count * kPageSize / (1024.0 * 1024.0));
  machine.Set("llc_size_bytes", config.machine.cache.size_bytes());
  machine.Set("seed", config.machine.seed);

  Json fusion = Json::Object();
  fusion.Set("wake_period_ns", config.fusion.wake_period);
  fusion.Set("pages_per_wake", config.fusion.pages_per_wake);
  fusion.Set("scan_threads", config.fusion.scan_threads);
  fusion.Set("pool_frames", config.fusion.pool_frames);
  fusion.Set("min_idle_rounds", config.fusion.min_idle_rounds);
  fusion.Set("working_set_estimation", config.fusion.working_set_estimation);
  fusion.Set("deferred_free", config.fusion.deferred_free);
  fusion.Set("rerandomize_each_scan", config.fusion.rerandomize_each_scan);
  fusion.Set("thp_aware", config.fusion.thp_aware);
  fusion.Set("zero_pages_only", config.fusion.zero_pages_only);
  fusion.Set("unmerge_on_any_access", config.fusion.unmerge_on_any_access);
  fusion.Set("wpf_period_ns", config.fusion.wpf_period);

  Json out = Json::Object();
  out.Set("engine", EngineKindName(config.engine));
  out.Set("machine", std::move(machine));
  out.Set("fusion", std::move(fusion));
  out.Set("enable_khugepaged", config.enable_khugepaged);
  if (config.enable_khugepaged) {
    Json khp = Json::Object();
    khp.Set("period_ns", config.khugepaged.period);
    khp.Set("ranges_per_wake", config.khugepaged.ranges_per_wake);
    khp.Set("min_active_subpages", config.khugepaged.min_active_subpages);
    khp.Set("adaptive_n", config.khugepaged.adaptive_n);
    out.Set("khugepaged", std::move(khp));
  }
  return out;
}

Json Describe(const VmImageSpec& spec) {
  Json out = Json::Object();
  out.Set("distro_seed", spec.distro_seed);
  out.Set("stack_seed", spec.stack_seed);
  out.Set("total_pages", spec.total_pages);
  out.Set("guest_mb", spec.total_pages * kPageSize / (1024.0 * 1024.0));
  out.Set("kernel_frac", spec.kernel_frac);
  out.Set("page_cache_frac", spec.page_cache_frac);
  out.Set("buddy_frac", spec.buddy_frac);
  out.Set("cache_distro_shared", spec.cache_distro_shared);
  out.Set("cache_stack_shared", spec.cache_stack_shared);
  out.Set("buddy_zero_frac", spec.buddy_zero_frac);
  out.Set("anon_shared_frac", spec.anon_shared_frac);
  out.Set("map_anon_as_thp", spec.map_anon_as_thp);
  return out;
}

ScopedEngine Scenario::MakeScenarioEngine(Machine& machine, const ScenarioConfig& config) {
  if (config.enable_khugepaged) {
    machine.EnableKhugepaged(config.khugepaged);
  }
  return ScopedEngine(config.engine, machine, config.fusion);
}

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config),
      machine_(std::make_unique<Machine>(config.machine)),
      engine_(MakeScenarioEngine(*machine_, config)) {}

Scenario::~Scenario() = default;

Process& Scenario::BootVm(const VmImageSpec& spec, std::uint64_t instance_seed) {
  return VmImage::Boot(*machine_, spec, instance_seed);
}

Process& Scenario::BootVm(const VmImageTemplate& tmpl) {
  return VmImage::BootFromTemplate(*machine_, tmpl);
}

std::uint64_t Scenario::consumed_frames() const {
  std::uint64_t frames = machine_->memory().allocated_count();
  if (engine_) {
    frames -= engine_->reserved_frames();
  }
  return frames;
}

double Scenario::consumed_mb() const {
  return static_cast<double>(consumed_frames()) * kPageSize / (1024.0 * 1024.0);
}

MetricsSnapshot Scenario::CollectMetrics() {
  if (engine_) {
    engine_->ExportMetrics(machine_->metrics());
  }
  return machine_->CollectMetrics();
}

}  // namespace vusion
