#include "src/chaos/fuzz_campaign.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/chaos/invariant_auditor.h"
#include "src/kernel/machine.h"
#include "src/kernel/process.h"
#include "src/snapshot/machine_snapshot.h"

namespace vusion {

const char* CampaignEngineToken(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNone:
      return "none";
    case EngineKind::kKsm:
      return "ksm";
    case EngineKind::kKsmCoA:
      return "ksm-coa";
    case EngineKind::kKsmZeroOnly:
      return "ksm-zero";
    case EngineKind::kWpf:
      return "wpf";
    case EngineKind::kVUsion:
      return "vusion";
    case EngineKind::kVUsionThp:
      return "vusion-thp";
    case EngineKind::kMemoryCombining:
      return "mc";
  }
  return "none";
}

bool ParseCampaignEngine(const std::string& token, EngineKind& kind) {
  for (const EngineKind candidate :
       {EngineKind::kNone, EngineKind::kKsm, EngineKind::kKsmCoA,
        EngineKind::kKsmZeroOnly, EngineKind::kWpf, EngineKind::kVUsion,
        EngineKind::kVUsionThp, EngineKind::kMemoryCombining}) {
    if (token == CampaignEngineToken(candidate)) {
      kind = candidate;
      return true;
    }
  }
  return false;
}

std::string FuzzCampaign::ReproCommand(
    const std::vector<FaultRecord>* schedule) const {
  std::ostringstream cmd;
  cmd << "tools/chaos_fuzz --engine " << CampaignEngineToken(options_.engine)
      << " --seed " << options_.seed << " --steps " << options_.steps
      << " --threads " << options_.scan_threads << " --rate "
      << options_.fault_rate << " --audit-epoch " << options_.audit_epoch;
  if (options_.snapshot_interval > 0) {
    cmd << " --snapshot-interval " << options_.snapshot_interval;
  }
  if (schedule != nullptr && !schedule->empty()) {
    cmd << " --schedule " << FormatSchedule(*schedule);
  }
  return cmd.str();
}

namespace {

constexpr std::size_t kPages = 512;

// Everything the workload event loop touches, bound either to the freshly
// booted machine or to one restored from a checkpoint.
struct WorkloadRig {
  Machine* machine = nullptr;
  FusionEngine* engine = nullptr;
  FaultInjector* injector = nullptr;
  Process* a = nullptr;
  Process* b = nullptr;
  VirtAddr base_a = 0;
  VirtAddr base_b = 0;
  std::vector<Process*> children;
  Rng rng{0};
};

// One mid-campaign savestate: the machine+engine image plus the host-side loop
// state (workload RNG, child list, throw counter) the snapshot cannot carry.
struct Checkpoint {
  std::size_t step = 0;  // first workload event not yet executed
  std::string image;
  Rng::State rng;
  std::vector<std::uint32_t> child_ids;  // youngest last
  std::uint64_t tolerated = 0;
  VirtAddr base_a = 0;
  VirtAddr base_b = 0;
};

// VM-teardown injection: a fired kTeardown at any scan phase boundary destroys
// the youngest forked VM while the engine is mid-quantum. The ShouldFail call
// always advances the site's visit counter (even with no children alive) so
// the schedule replays independently of workload state.
void InstallTeardownHook(WorkloadRig& rig) {
  if (rig.engine == nullptr) {
    return;
  }
  Machine* machine = rig.machine;
  FaultInjector* injector = rig.injector;
  std::vector<Process*>* children = &rig.children;
  rig.engine->SetPhaseHook([machine, injector, children](FusionEngine&, ScanPhase) {
    if (injector->ShouldFail(FaultSite::kTeardown) && !children->empty()) {
      machine->DestroyProcess(*children->back());
      children->pop_back();
      injector->RecordDegradation();
    }
  });
}

// Executes workload events [first_step, options.steps), auditing on the
// configured cadence and (optionally) taking periodic savestate checkpoints.
// Shared by the boot path and the restore-to-failure tail replay.
void RunEventLoop(WorkloadRig& rig, std::size_t first_step,
                  const CampaignOptions& options, InvariantAuditor& auditor,
                  CampaignResult& result, std::vector<Checkpoint>* checkpoints) {
  auto audit_now = [&](std::size_t step) {
    AuditReport report = auditor.Audit(rig.engine);
    if (!report.ok) {
      result.ok = false;
      result.failed_step = step;
      result.violations = std::move(report.violations);
    }
    return result.ok;
  };

  for (std::size_t step = first_step; step < options.steps && result.ok; ++step) {
    if (checkpoints != nullptr && options.snapshot_interval > 0 && step > 0 &&
        step % options.snapshot_interval == 0 &&
        (rig.engine == nullptr || rig.engine->SupportsSnapshot())) {
      Checkpoint cp;
      cp.step = step;
      cp.rng = rig.rng.state();
      cp.base_a = rig.base_a;
      cp.base_b = rig.base_b;
      for (const Process* child : rig.children) {
        cp.child_ids.push_back(child->id());
      }
      cp.tolerated = result.tolerated_throws;
      cp.image = snapshot::SaveSnapshot(*rig.machine, rig.engine, options.engine);
      checkpoints->push_back(std::move(cp));
      ++result.snapshots_taken;
    }
    const std::size_t page = rig.rng.NextBelow(kPages);
    Process& proc = rig.rng.NextBool(0.5) ? *rig.a : *rig.b;
    const VirtAddr base = (&proc == rig.a) ? rig.base_a : rig.base_b;
    try {
      switch (rig.rng.NextBelow(6)) {
        case 0:
          proc.Write64(base + page * kPageSize, step);
          break;
        case 1:
          proc.Read64(base + page * kPageSize);
          break;
        case 2:
          rig.machine->Idle(rig.rng.NextInRange(1, 4) * kMillisecond);
          break;
        case 3:
          if (&proc == rig.a) {
            rig.a->SetupUnmap(VaddrToVpn(rig.base_a) + page);
          }
          break;
        case 4:
          proc.Prefetch(base + page * kPageSize);
          break;
        default:
          if (rig.children.size() < 4) {
            Process& child = rig.machine->ForkProcess(*rig.b);
            child.Write64(rig.base_b + page * kPageSize, step);
            rig.children.push_back(&child);
          } else {
            rig.machine->DestroyProcess(*rig.children.back());
            rig.children.pop_back();
          }
          break;
      }
    } catch (const std::runtime_error&) {
      // A fault-retry limit tripped by clustered injections: the access was
      // abandoned, which is fine as long as the machine stayed consistent —
      // the audit below is the judge.
      ++result.tolerated_throws;
    }
    if (options.audit_epoch <= 1 || step % options.audit_epoch == 0) {
      audit_now(step);
    }
  }
  if (result.ok) {
    rig.machine->Idle(50 * kMillisecond);
    audit_now(options.steps);
  }
}

// Restores the checkpoint and replays the remaining workload events. True when
// the replay reproduces the original violation exactly (same step, same
// violation text) — the restore-to-failure guarantee.
bool ReplayTail(const CampaignOptions& options, const Checkpoint& cp,
                const CampaignResult& original) {
  try {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(cp.image);
    const auto& procs = restored.machine->processes();
    WorkloadRig rig;
    rig.machine = restored.machine.get();
    rig.engine = restored.engine.get();
    rig.injector = restored.machine->chaos();
    rig.a = procs.at(0).get();
    rig.b = procs.at(1).get();
    rig.base_a = cp.base_a;
    rig.base_b = cp.base_b;
    for (const std::uint32_t id : cp.child_ids) {
      rig.children.push_back(procs.at(id).get());
    }
    rig.rng.RestoreState(cp.rng);
    if (rig.injector == nullptr || rig.a == nullptr || rig.b == nullptr) {
      return false;
    }
    InstallTeardownHook(rig);

    InvariantAuditor auditor(*restored.machine);
    CampaignResult replay;
    replay.tolerated_throws = cp.tolerated;
    RunEventLoop(rig, cp.step, options, auditor, replay, nullptr);
    return !replay.ok && replay.failed_step == original.failed_step &&
           replay.violations == original.violations;
  } catch (const snapshot::RestoreError&) {
    return false;
  }
}

}  // namespace

CampaignResult FuzzCampaign::RunOnce(const std::vector<FaultRecord>* schedule,
                                     bool dump_artifacts) {
  CampaignResult result;

  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = options_.seed;
  Machine machine(machine_config);
  machine.trace().set_enabled(true);

  ChaosConfig chaos_config;
  chaos_config.seed = options_.seed;
  chaos_config.SetAllRates(options_.fault_rate);
  FaultInjector& injector =
      schedule != nullptr
          ? machine.EnableChaosWithSchedule(chaos_config, *schedule)
          : machine.EnableChaos(chaos_config);

  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 512;
  fusion_config.wpf_period = 10 * kMillisecond;
  fusion_config.scan_threads = options_.scan_threads;
  if (options_.engine == EngineKind::kMemoryCombining) {
    // Permanent pressure so the swap-cache engine actually acts.
    fusion_config.mc_low_watermark = machine_config.frame_count;
  }
  ScopedEngine engine(options_.engine, machine, fusion_config);

  // The workload: the frame-audit property test's event mix (map, write, read,
  // idle, unmap, prefetch, fork/exit churn) driven by the campaign seed.
  Process& a = machine.CreateProcess();
  Process& b = machine.CreateProcess();
  const VirtAddr base_a = a.AllocateRegion(kPages, PageType::kAnonymous, true, false);
  const VirtAddr base_b = b.AllocateRegion(kPages, PageType::kAnonymous, true, true);
  for (std::size_t i = 0; i < kPages; ++i) {
    a.SetupMapPattern(VaddrToVpn(base_a) + i, 0x5000 + (i % 32));
    b.SetupMapPattern(VaddrToVpn(base_b) + i, 0x5000 + (i % 32));
  }

  WorkloadRig rig;
  rig.machine = &machine;
  rig.engine = engine.get();
  rig.injector = &injector;
  rig.a = &a;
  rig.b = &b;
  rig.base_a = base_a;
  rig.base_b = base_b;
  rig.rng = Rng(options_.seed * 13 + 5);
  InstallTeardownHook(rig);

  InvariantAuditor auditor(machine);
  // Checkpoints are only kept on the primary run; shrink replays skip them
  // (dump_artifacts is false there) to keep bisection cheap.
  std::vector<Checkpoint> checkpoints;
  std::vector<Checkpoint>* take =
      (dump_artifacts && options_.snapshot_interval > 0) ? &checkpoints : nullptr;
  RunEventLoop(rig, 0, options_, auditor, result, take);

  result.schedule = injector.injected_schedule();
  result.faults_injected = injector.total_injected();
  result.audits = auditor.audits_run();
  result.checks = auditor.checks_total();

  const Checkpoint* nearest = nullptr;
  if (!result.ok) {
    for (const Checkpoint& cp : checkpoints) {
      if (cp.step <= result.failed_step) {
        nearest = &cp;
      }
    }
    if (nearest != nullptr) {
      result.has_nearest_snapshot = true;
      result.nearest_snapshot_step = nearest->step;
      result.restore_to_failure_ok = ReplayTail(options_, *nearest, result);
    }
  }

  if (!result.ok && dump_artifacts && !options_.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.artifact_dir, ec);
    const std::string stem = options_.artifact_dir + "/chaos_" +
                             CampaignEngineToken(options_.engine) + "_seed" +
                             std::to_string(options_.seed);
    if (nearest != nullptr) {
      result.snapshot_path =
          stem + "_step" + std::to_string(nearest->step) + ".vsnap";
      std::ofstream snap(result.snapshot_path, std::ios::binary);
      snap.write(nearest->image.data(),
                 static_cast<std::streamsize>(nearest->image.size()));
    }
    const std::string path = stem + ".txt";
    std::ofstream out(path);
    out << "repro: " << ReproCommand(&result.schedule) << "\n";
    out << "failed_step: " << result.failed_step << "\n";
    out << "schedule: " << FormatSchedule(result.schedule) << "\n";
    if (result.has_nearest_snapshot) {
      out << "nearest_snapshot: step " << result.nearest_snapshot_step << " ("
          << result.snapshot_path << "), restore-to-failure "
          << (result.restore_to_failure_ok ? "reproduced" : "NOT reproduced")
          << "\n";
    }
    out << "\nviolations:\n";
    for (const std::string& violation : result.violations) {
      out << "  " << violation << "\n";
    }
    out << "\ntrace summary:\n" << machine.trace().Summary() << "\n";
    out << "trace tail:\n";
    const auto events = machine.trace().Events();
    const std::size_t start = events.size() > 200 ? events.size() - 200 : 0;
    for (std::size_t i = start; i < events.size(); ++i) {
      const TraceEvent& event = events[i];
      out << "  t=" << event.time << " " << TraceEventTypeName(event.type)
          << " pid=" << event.process_id << " vpn=" << event.vpn
          << " frame=" << event.frame << "\n";
    }
    auditor.ExportMetrics(machine.metrics());
    out << "\nmetrics:\n" << machine.CollectMetrics().RenderTable() << "\n";
  }
  return result;
}

std::vector<FaultRecord> FuzzCampaign::ShrinkSchedule(
    const std::vector<FaultRecord>& failing) {
  std::size_t budget = 40;  // replay bound: shrinking is best-effort
  auto fails = [&](const std::vector<FaultRecord>& candidate) {
    --budget;
    return !RunOnce(&candidate, /*dump_artifacts=*/false).ok;
  };

  // Pass 1: bisection — keep halving while one half alone still fails.
  std::vector<FaultRecord> current = failing;
  while (current.size() > 1 && budget > 1) {
    const auto mid =
        current.begin() + static_cast<std::ptrdiff_t>(current.size() / 2);
    std::vector<FaultRecord> front(current.begin(), mid);
    std::vector<FaultRecord> back(mid, current.end());
    if (fails(front)) {
      current = std::move(front);
    } else if (budget > 0 && fails(back)) {
      current = std::move(back);
    } else {
      break;
    }
  }
  // Pass 2: one-at-a-time removal of the survivors.
  for (std::size_t i = 0; i < current.size() && budget > 0;) {
    std::vector<FaultRecord> candidate = current;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
    if (fails(candidate)) {
      current = std::move(candidate);
    } else {
      ++i;
    }
  }
  return current;
}

CampaignResult FuzzCampaign::Run() {
  const std::vector<FaultRecord>* schedule =
      options_.use_schedule ? &options_.schedule : nullptr;
  CampaignResult result = RunOnce(schedule, /*dump_artifacts=*/true);
  if (!result.ok) {
    if (options_.shrink && !options_.use_schedule && !result.schedule.empty()) {
      result.shrunk_schedule = ShrinkSchedule(result.schedule);
    } else {
      result.shrunk_schedule = result.schedule;
    }
    result.repro = ReproCommand(
        result.shrunk_schedule.empty() ? nullptr : &result.shrunk_schedule);
    if (result.has_nearest_snapshot) {
      result.repro += "  # nearest snapshot: step " +
                      std::to_string(result.nearest_snapshot_step) +
                      (result.snapshot_path.empty() ? std::string()
                                                    : " at " + result.snapshot_path);
    }
  }
  return result;
}

}  // namespace vusion
