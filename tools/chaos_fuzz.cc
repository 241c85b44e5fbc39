// Chaos fuzzing driver: runs seed-based fault-injection campaigns against the
// fusion engines, auditing machine-wide invariants throughout. A campaign is a
// pure function of its seed — any failure prints an exact replay command
// (seed + recorded fault schedule) that reproduces it byte-for-byte.
//
// Usage:
//   tools/chaos_fuzz --seeds 25 --engine all --fast-audit
//   tools/chaos_fuzz --engine vusion --seed 7 --schedule buddy_alloc@3,teardown@1
//
// Exit status 0 if every campaign held all invariants, 1 otherwise.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/chaos/fuzz_campaign.h"
#include "src/host/thread_pool.h"

namespace {

using vusion::CampaignEngineToken;
using vusion::CampaignOptions;
using vusion::CampaignResult;
using vusion::EngineKind;
using vusion::FuzzCampaign;

struct CliOptions {
  CampaignOptions campaign;
  std::vector<EngineKind> engines{EngineKind::kKsm, EngineKind::kWpf,
                                  EngineKind::kVUsion};
  std::uint64_t seed_base = 1;
  std::size_t seed_count = 1;
};

void PrintUsage() {
  std::cerr
      << "usage: chaos_fuzz [options]\n"
         "  --engine ksm|wpf|vusion|vusion-thp|ksm-coa|ksm-zero|mc|none|all\n"
         "  --seed N          first campaign seed (default 1)\n"
         "  --seeds N         number of consecutive seeds to run (default 1)\n"
         "  --steps N         workload events per campaign (default 400)\n"
         "  --threads N       engine scan threads, at most "
      << vusion::host::ThreadPool::kMaxThreads << " (default 1)\n"
         "  --rate R          per-visit injection probability (default 0.01)\n"
         "  --audit-epoch N   audit every N events (default 1 = slow mode)\n"
         "  --fast-audit      shorthand for --audit-epoch 16\n"
         "  --snapshot-interval N  savestate checkpoint every N events; on a\n"
         "                    failure, replay from the nearest pre-failure\n"
         "                    checkpoint to verify it reproduces (default off)\n"
         "  --schedule S      replay an exact fault schedule (site@visit,...)\n"
         "  --artifact-dir D  dump trace+metrics there on failure\n"
         "  --no-shrink       skip schedule minimization on failure\n";
}

bool ParseArgs(int argc, char** argv, CliOptions& cli) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--engine") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      if (std::string(value) == "all") {
        cli.engines = {EngineKind::kKsm, EngineKind::kWpf, EngineKind::kVUsion};
      } else {
        EngineKind kind;
        if (!vusion::ParseCampaignEngine(value, kind)) {
          std::cerr << "unknown engine: " << value << "\n";
          return false;
        }
        cli.engines = {kind};
      }
    } else if (arg == "--seed") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.seed_base = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seeds") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.seed_count = std::strtoull(value, nullptr, 10);
    } else if (arg == "--steps") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.campaign.steps = std::strtoull(value, nullptr, 10);
    } else if (arg == "--threads") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      if (!vusion::ParseScanThreads(value, cli.campaign.scan_threads)) {
        std::cerr << "bad --threads value: " << value << "\n";
        return false;
      }
    } else if (arg == "--rate") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.campaign.fault_rate = std::strtod(value, nullptr);
    } else if (arg == "--audit-epoch") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.campaign.audit_epoch = std::strtoull(value, nullptr, 10);
    } else if (arg == "--snapshot-interval") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.campaign.snapshot_interval = std::strtoull(value, nullptr, 10);
    } else if (arg == "--fast-audit") {
      cli.campaign.audit_epoch = 16;
    } else if (arg == "--schedule") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      if (!vusion::ParseSchedule(value, &cli.campaign.schedule)) {
        std::cerr << "bad schedule: " << value << "\n";
        return false;
      }
      cli.campaign.use_schedule = true;
    } else if (arg == "--artifact-dir") {
      if ((value = need_value(i)) == nullptr) {
        return false;
      }
      cli.campaign.artifact_dir = value;
    } else if (arg == "--no-shrink") {
      cli.campaign.shrink = false;
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

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, cli)) {
    PrintUsage();
    return 2;
  }

  std::size_t failures = 0;
  std::size_t campaigns = 0;
  for (const EngineKind engine : cli.engines) {
    for (std::size_t i = 0; i < cli.seed_count; ++i) {
      CampaignOptions options = cli.campaign;
      options.engine = engine;
      options.seed = cli.seed_base + i;
      ++campaigns;
      const CampaignResult result = FuzzCampaign(options).Run();
      if (result.ok) {
        std::cout << "[ok]   " << CampaignEngineToken(engine) << " seed "
                  << options.seed << ": " << result.faults_injected
                  << " faults injected, " << result.audits << " audits ("
                  << result.checks << " checks), " << result.tolerated_throws
                  << " tolerated aborts";
        if (result.snapshots_taken > 0) {
          std::cout << ", " << result.snapshots_taken << " checkpoints";
        }
        std::cout << "\n";
        continue;
      }
      ++failures;
      std::cout << "[FAIL] " << CampaignEngineToken(engine) << " seed "
                << options.seed << ": invariants violated at step "
                << result.failed_step << "\n";
      for (const std::string& violation : result.violations) {
        std::cout << "       " << violation << "\n";
      }
      std::cout << "       schedule: " << vusion::FormatSchedule(result.schedule)
                << "\n";
      if (result.shrunk_schedule.size() < result.schedule.size()) {
        std::cout << "       shrunk:   "
                  << vusion::FormatSchedule(result.shrunk_schedule) << "\n";
      }
      if (result.has_nearest_snapshot) {
        std::cout << "       snapshot: nearest pre-failure checkpoint at step "
                  << result.nearest_snapshot_step << ", restore-to-failure "
                  << (result.restore_to_failure_ok ? "reproduced" : "NOT reproduced");
        if (!result.snapshot_path.empty()) {
          std::cout << " (" << result.snapshot_path << ")";
        }
        std::cout << "\n";
      }
      std::cout << "       repro:    " << result.repro << "\n";
    }
  }
  std::cout << campaigns << " campaigns, " << failures << " failures\n";
  return failures == 0 ? 0 : 1;
}
