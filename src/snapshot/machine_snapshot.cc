#include "src/snapshot/machine_snapshot.h"

#include <string>
#include <utility>

#include "src/chaos/invariant_auditor.h"
#include "src/snapshot/config_codec.h"

namespace vusion::snapshot {

namespace {

constexpr std::uint8_t kMaxEngineKind =
    static_cast<std::uint8_t>(EngineKind::kMemoryCombining);

// The Machine writes this many sections (see Machine::Save); the orchestrator
// adds "config" in front and "engine" behind. Used to reject snapshots with
// unexpected extra sections appended after a valid prefix.
constexpr std::size_t kMachineSections = 12;

struct ConfigRecord {
  MachineConfig machine;
  EngineKind kind = EngineKind::kNone;
  FusionConfig fusion;
};

ConfigRecord ReadConfigSection(SnapshotReader& r) {
  r.OpenSection("config");
  ConfigRecord rec;
  rec.machine = ReadMachineConfig(r);
  const std::uint8_t kind_raw = r.U8();
  if (kind_raw > kMaxEngineKind) {
    throw RestoreError("config", "unknown engine kind " + std::to_string(kind_raw));
  }
  rec.kind = static_cast<EngineKind>(kind_raw);
  if (rec.kind != EngineKind::kNone) {
    rec.fusion = ReadFusionConfig(r);
  }
  r.EndSection();
  return rec;
}

}  // namespace

std::string SaveSnapshot(Machine& machine, FusionEngine* engine, EngineKind kind) {
  if ((engine == nullptr) != (kind == EngineKind::kNone)) {
    throw RestoreError("config", "engine pointer and engine kind disagree");
  }
  if (engine != nullptr && !engine->SupportsSnapshot()) {
    throw RestoreError("engine",
                       std::string(engine->name()) + " does not support savestates");
  }
  SnapshotWriter w;
  w.BeginSection("config");
  WriteMachineConfig(w, machine.config());
  w.U8(static_cast<std::uint8_t>(kind));
  if (engine != nullptr) {
    WriteFusionConfig(w, engine->config());
  }
  w.EndSection();
  machine.Save(w);
  if (engine != nullptr) {
    w.BeginSection("engine");
    engine->SaveState(w);
    w.EndSection();
  }
  return w.Finish();
}

RestoredMachine RestoreSnapshot(std::string_view buffer) {
  SnapshotReader r(buffer);
  const ConfigRecord rec = ReadConfigSection(r);

  const std::size_t expected_sections =
      1 + kMachineSections + (rec.kind != EngineKind::kNone ? 1 : 0);
  if (r.sections().size() != expected_sections) {
    throw RestoreError("config",
                       "unexpected section count " + std::to_string(r.sections().size()) +
                           " (want " + std::to_string(expected_sections) + ")");
  }

  RestoredMachine out;
  out.kind = rec.kind;
  out.machine = std::make_unique<Machine>(rec.machine);
  out.engine = MakeEngineExact(rec.kind, *out.machine, rec.fusion);
  if (out.engine != nullptr) {
    // Installed before Machine::Restore so restored processes see the engine
    // as their sharing policy, exactly as on the saved machine.
    out.engine->Install();
    out.engine->ForgetReservedFrames();
  }
  try {
    out.machine->Restore(r);
    if (out.engine != nullptr) {
      r.OpenSection("engine");
      out.engine->RestoreState(r);
      r.EndSection();
    }

    // Gate the hand-back behind the machine-wide oracle: a snapshot whose
    // sections all decode can still describe an inconsistent machine (hand-
    // crafted or a serializer bug); that must fail closed too.
    AuditReport report = InvariantAuditor(*out.machine).Audit(out.engine.get());
    if (!report.ok) {
      std::string detail = "restored state fails invariant audit";
      if (!report.violations.empty()) {
        detail += " (" + std::to_string(report.violations.size()) +
                  " violations, first: " + report.violations.front() + ")";
      }
      throw RestoreError("audit", detail);
    }
  } catch (...) {
    // The half-restored pair is discarded as a whole. Its allocator state may
    // be inconsistent, so tearing it down must free nothing into it.
    if (out.engine != nullptr) {
      out.engine->ForgetReservedFrames();
    }
    out.machine->ForgetPageTableFrames();
    throw;
  }
  return out;
}

std::vector<RestoredMachine> FanOut(std::string_view buffer, std::size_t count) {
  std::vector<RestoredMachine> clones;
  clones.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    clones.push_back(RestoreSnapshot(buffer));
  }
  return clones;
}

SnapshotInfo InspectSnapshot(std::string_view buffer) {
  SnapshotReader r(buffer);
  const ConfigRecord rec = ReadConfigSection(r);
  SnapshotInfo info;
  info.version = kVersion;  // the reader rejects every other version up front
  info.kind = rec.kind;
  info.seed = rec.machine.seed;
  info.frame_count = rec.machine.frame_count;
  info.total_bytes = buffer.size();
  info.sections = r.sections();
  return info;
}

SnapshotInfo VerifySnapshot(std::string_view buffer) {
  SnapshotInfo info = InspectSnapshot(buffer);
  RestoredMachine probe = RestoreSnapshot(buffer);  // throws on any defect
  (void)probe;
  return info;
}

}  // namespace vusion::snapshot
