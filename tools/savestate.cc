// Savestate CLI: create, continue, inspect, and verify machine snapshots
// (DESIGN.md §13). The boot command drives a canonical duplicate-heavy
// workload so snapshots have non-trivial fusion state; continue restores a
// snapshot in a fresh process and keeps running — the CI snapshot-smoke job
// byte-compares a straight-through run against a save/restore/continue run.
//
// Usage:
//   tools/savestate boot --engine vusion --seed 11 --steps 300 --out mid.vsnap
//   tools/savestate boot --engine vusion --seed 11 --steps 300 --idle 80 \
//       --out straight.vsnap --stats straight.txt
//   tools/savestate continue --in mid.vsnap --idle 80 --out continued.vsnap \
//       --stats restored.txt
//   tools/savestate inspect --in mid.vsnap
//   tools/savestate verify --in mid.vsnap
//
// Exit status: 0 on success, 1 on restore/verify failure, 2 on usage errors.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/fuzz_campaign.h"  // engine token and thread-count parsing
#include "src/host/thread_pool.h"
#include "src/kernel/process.h"
#include "src/snapshot/machine_snapshot.h"

namespace {

using vusion::EngineKind;
using vusion::FusionConfig;
using vusion::FusionEngine;
using vusion::kMillisecond;
using vusion::kPageSize;
using vusion::Machine;
using vusion::MachineConfig;
using vusion::MakeEngineExact;
using vusion::Process;
using vusion::Rng;
using vusion::VaddrToVpn;
using vusion::VirtAddr;

struct CliOptions {
  std::string command;
  EngineKind engine = EngineKind::kVUsion;
  std::uint64_t seed = 1;
  std::size_t steps = 300;
  std::uint64_t idle_ms = 0;
  std::size_t threads = 1;
  std::string in_path;
  std::string out_path;
  std::string stats_path;
};

void PrintUsage() {
  std::cerr
      << "usage: savestate <boot|continue|inspect|verify> [options]\n"
         "  boot:     boot the canonical workload, then save\n"
         "    --engine TOK   ksm|wpf|vusion|vusion-thp|ksm-coa|ksm-zero|none\n"
         "    --seed N       machine + workload seed (default 1)\n"
         "    --steps N      workload events before saving (default 300)\n"
         "    --threads N    engine scan threads, at most "
      << vusion::host::ThreadPool::kMaxThreads << " (default 1)\n"
         "    --idle MS      extra idle after the workload (default 0)\n"
         "    --out FILE     write the snapshot here\n"
         "    --stats FILE   write a run-summary report here\n"
         "  continue: restore a snapshot and keep running\n"
         "    --in FILE --idle MS [--out FILE] [--stats FILE]\n"
         "  inspect:  print header, configs, and the section table\n"
         "    --in FILE\n"
         "  verify:   full restore including the invariant audit\n"
         "    --in FILE\n";
}

bool ParseArgs(int argc, char** argv, CliOptions& cli) {
  if (argc < 2) {
    return false;
  }
  cli.command = argv[1];
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--engine") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      if (!vusion::ParseCampaignEngine(value, cli.engine)) {
        std::cerr << "unknown engine: " << value << "\n";
        return false;
      }
    } else if (arg == "--seed") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--steps") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.steps = std::strtoull(value, nullptr, 10);
    } else if (arg == "--idle") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.idle_ms = std::strtoull(value, nullptr, 10);
    } else if (arg == "--threads") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      if (!vusion::ParseScanThreads(value, cli.threads)) {
        std::cerr << "bad --threads value: " << value << "\n";
        return false;
      }
    } else if (arg == "--in") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.in_path = value;
    } else if (arg == "--out") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.out_path = value;
    } else if (arg == "--stats") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.stats_path = value;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
  }
  return true;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

// Deterministic run summary; the smoke job diffs this byte-for-byte between a
// straight run and a save/restore/continue run.
void WriteStats(const std::string& path, Machine& machine, FusionEngine* engine) {
  std::ostringstream out;
  out << "clock_now: " << machine.clock().now() << "\n";
  out << "total_faults: " << machine.total_faults() << "\n";
  out << "huge_mappings: " << machine.CountHugeMappings() << "\n";
  if (engine != nullptr) {
    out << "engine: " << engine->name() << "\n";
    out << "frames_saved: " << engine->frames_saved() << "\n";
    const auto& stats = engine->stats();
    out << "pages_scanned: " << stats.pages_scanned << "\n";
    out << "merges: " << stats.merges << "\n";
    out << "fake_merges: " << stats.fake_merges << "\n";
    out << "unmerges_cow: " << stats.unmerges_cow << "\n";
    out << "unmerges_coa: " << stats.unmerges_coa << "\n";
    out << "zero_page_merges: " << stats.zero_page_merges << "\n";
    out << "full_scans: " << stats.full_scans << "\n";
  }
  out << "metrics:\n" << machine.CollectMetrics().RenderTable() << "\n";
  if (!WriteFile(path, out.str())) {
    std::exit(1);
  }
}

// The canonical boot workload: duplicate-heavy pattern pages across three
// processes plus a seeded op mix, same shape as the parity tests.
void RunBootWorkload(Machine& machine, std::uint64_t seed, std::size_t steps) {
  constexpr std::size_t kProcesses = 3;
  constexpr std::size_t kPagesPerProcess = 64;
  std::vector<Process*> procs;
  std::vector<VirtAddr> bases;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    Process& proc = machine.CreateProcess();
    procs.push_back(&proc);
    const VirtAddr base = proc.AllocateRegion(kPagesPerProcess,
                                              vusion::PageType::kAnonymous, true, false);
    bases.push_back(base);
    for (std::size_t i = 0; i < kPagesPerProcess; ++i) {
      proc.SetupMapPattern(VaddrToVpn(base) + i, 0x9000 + (i % 16));
    }
  }
  Rng rng(seed * 1000003 + 17);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t p = rng.NextBelow(kProcesses);
    const std::uint64_t page = rng.NextBelow(kPagesPerProcess);
    const VirtAddr addr = bases[p] + page * kPageSize + rng.NextBelow(kPageSize / 8) * 8;
    switch (rng.NextBelow(5)) {
      case 0:
        procs[p]->Write64(addr, rng.Next());
        break;
      case 1:
        (void)procs[p]->Read64(addr);
        break;
      case 2:
        machine.Idle(rng.NextInRange(1, 4) * kMillisecond);
        break;
      case 3:
        procs[p]->Write64(addr, 0);
        break;
      default:
        (void)procs[p]->Read64(bases[p] + page * kPageSize);
        break;
    }
  }
}

int CmdBoot(const CliOptions& cli) {
  MachineConfig machine_config;
  machine_config.frame_count = 1u << 14;
  machine_config.seed = cli.seed;
  Machine machine(machine_config);

  FusionConfig fusion_config;
  fusion_config.wake_period = 1 * kMillisecond;
  fusion_config.pages_per_wake = 256;
  fusion_config.pool_frames = 1024;
  fusion_config.wpf_period = 10 * kMillisecond;
  fusion_config.scan_threads = cli.threads;
  std::unique_ptr<FusionEngine> engine =
      MakeEngineExact(cli.engine, machine, fusion_config);
  if (engine != nullptr) {
    engine->Install();
  }

  RunBootWorkload(machine, cli.seed, cli.steps);
  machine.Idle(cli.idle_ms * kMillisecond);

  if (!cli.out_path.empty()) {
    const std::string image =
        vusion::snapshot::SaveSnapshot(machine, engine.get(), cli.engine);
    if (!WriteFile(cli.out_path, image)) {
      return 1;
    }
    std::cout << "saved " << image.size() << " bytes to " << cli.out_path << "\n";
  }
  if (!cli.stats_path.empty()) {
    WriteStats(cli.stats_path, machine, engine.get());
  }
  if (engine != nullptr) {
    engine->Uninstall();
  }
  return 0;
}

int CmdContinue(const CliOptions& cli) {
  std::string image;
  if (cli.in_path.empty() || !ReadFile(cli.in_path, image)) {
    return cli.in_path.empty() ? 2 : 1;
  }
  vusion::snapshot::RestoredMachine restored = vusion::snapshot::RestoreSnapshot(image);
  std::cout << "restored " << vusion::CampaignEngineToken(restored.kind) << " machine ("
            << image.size() << " bytes), clock " << restored.machine->clock().now()
            << "\n";
  restored.machine->Idle(cli.idle_ms * kMillisecond);
  if (!cli.out_path.empty()) {
    const std::string resaved = vusion::snapshot::SaveSnapshot(
        *restored.machine, restored.engine.get(), restored.kind);
    if (!WriteFile(cli.out_path, resaved)) {
      return 1;
    }
    std::cout << "saved " << resaved.size() << " bytes to " << cli.out_path << "\n";
  }
  if (!cli.stats_path.empty()) {
    WriteStats(cli.stats_path, *restored.machine, restored.engine.get());
  }
  return 0;
}

int CmdInspect(const CliOptions& cli) {
  std::string image;
  if (cli.in_path.empty() || !ReadFile(cli.in_path, image)) {
    return cli.in_path.empty() ? 2 : 1;
  }
  const vusion::snapshot::SnapshotInfo info = vusion::snapshot::InspectSnapshot(image);
  std::cout << "version:     " << info.version << "\n";
  std::cout << "bytes:       " << info.total_bytes << "\n";
  std::cout << "engine:      " << vusion::CampaignEngineToken(info.kind) << "\n";
  std::cout << "seed:        " << info.seed << "\n";
  std::cout << "frame_count: " << info.frame_count << "\n";
  std::cout << "sections:\n";
  for (const auto& section : info.sections) {
    std::cout << "  " << section.name;
    for (std::size_t pad = section.name.size(); pad < 12; ++pad) {
      std::cout << ' ';
    }
    std::cout << " offset " << section.offset << "  size " << section.size << "\n";
  }
  return 0;
}

int CmdVerify(const CliOptions& cli) {
  std::string image;
  if (cli.in_path.empty() || !ReadFile(cli.in_path, image)) {
    return cli.in_path.empty() ? 2 : 1;
  }
  const vusion::snapshot::SnapshotInfo info = vusion::snapshot::VerifySnapshot(image);
  std::cout << "ok: " << info.sections.size() << " sections, "
            << vusion::CampaignEngineToken(info.kind)
            << " engine, restore + invariant audit clean\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, cli)) {
    PrintUsage();
    return 2;
  }
  try {
    if (cli.command == "boot") {
      return CmdBoot(cli);
    }
    if (cli.command == "continue") {
      return CmdContinue(cli);
    }
    if (cli.command == "inspect") {
      return CmdInspect(cli);
    }
    if (cli.command == "verify") {
      return CmdVerify(cli);
    }
  } catch (const vusion::snapshot::RestoreError& e) {
    std::cerr << "FAIL [" << e.section() << "]: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << cli.command << "\n";
  PrintUsage();
  return 2;
}
