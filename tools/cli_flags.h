// Numeric flag parsing shared by the chaos_fuzz and savestate CLIs. Each
// parser rejects a malformed value while the flags are read, before a Machine
// (and its thread pool) exists; the tools then print their usage and exit 2.

#ifndef VUSION_TOOLS_CLI_FLAGS_H_
#define VUSION_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cstddef>
#include <string_view>
#include <system_error>

#include "src/host/thread_pool.h"

namespace vusion::cli {

// A whole unsigned decimal (digits only: no sign, space or suffix) that fits
// in `value`. Returns false for anything else and leaves `value` untouched.
template <typename Unsigned>
bool ParseDecimal(std::string_view token, Unsigned& value) {
  Unsigned parsed = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  value = parsed;
  return true;
}

// The `--rate` value: a number in [0, 1]. The negated range test also turns
// away a NaN.
inline bool ParseFaultRate(std::string_view token, double& rate) {
  double parsed = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, parsed);
  if (ec != std::errc() || ptr != end || !(parsed >= 0.0 && parsed <= 1.0)) {
    return false;
  }
  rate = parsed;
  return true;
}

// The `--threads` value: a scan thread count no larger than
// host::ThreadPool::kMaxThreads.
inline bool ParseScanThreads(std::string_view token, std::size_t& threads) {
  std::size_t value = 0;
  if (!ParseDecimal(token, value) || value > host::ThreadPool::kMaxThreads) {
    return false;
  }
  threads = value;
  return true;
}

}  // namespace vusion::cli

#endif  // VUSION_TOOLS_CLI_FLAGS_H_
