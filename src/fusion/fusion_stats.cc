#include "src/fusion/fusion_stats.h"

#include <cstdlib>
#include <sstream>

namespace vusion {

void FusionConfig::ApplyEnvOverrides() {
  if (const char* env = std::getenv("VUSION_SCAN_THREADS")) {
    const long threads = std::strtol(env, nullptr, 10);
    if (threads > 0) {
      scan_threads = static_cast<std::size_t>(threads);
    }
  }
  if (const char* env = std::getenv("VUSION_SCAN_STREAMING")) {
    const long value = std::strtol(env, nullptr, 10);
    scan_streaming = value != 0;
  }
  if (const char* env = std::getenv("VUSION_SCAN_CHUNK")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value >= 0) {
      scan_chunk_pages = static_cast<std::size_t>(value);
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
