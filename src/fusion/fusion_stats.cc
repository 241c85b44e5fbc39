#include "src/fusion/fusion_stats.h"

#include <cstdlib>
#include <sstream>

#include "src/host/thread_pool.h"

namespace vusion {

void FusionConfig::ApplyEnvOverrides() {
  if (const char* env = std::getenv("VUSION_SCAN_THREADS")) {
    const long threads = std::strtol(env, nullptr, 10);
    if (threads > 0 && static_cast<unsigned long>(threads) <= host::ThreadPool::kMaxThreads) {
      scan_threads = static_cast<std::size_t>(threads);
    }
  }
}

std::string FusionStats::Summary() const {
  std::ostringstream out;
  out << "scanned=" << pages_scanned << " merges=" << merges << " fake_merges=" << fake_merges
      << " cow=" << unmerges_cow << " coa=" << unmerges_coa << " rounds=" << full_scans;
  return out.str();
}

}  // namespace vusion
