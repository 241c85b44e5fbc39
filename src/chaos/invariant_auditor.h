// Machine-wide invariant auditor (the chaos harness's oracle): walks every
// process's page tables, the TLBs, the cache hierarchy's per-frame counters,
// and the installed fusion engine's private structures, and checks that they
// all describe the same machine:
//  - frame refcounts equal the number of PTEs mapping the frame,
//  - fused (refcounted) frames are read-only everywhere,
//  - tree/checksum entries point at live frames (engine hooks),
//  - the deferred-free queue and entropy pool hold no mapped frames,
//  - every TLB entry agrees with the page table it caches,
//  - the LLC/L1 per-frame line counters match the resident lines,
//  - mapped, page-table, and engine-owned frames exactly partition the
//    allocated set (no leaks, no double ownership).
//
// The auditor only reads simulated state; it never charges latency, draws from
// any RNG, or mutates anything, so auditing is invisible to the determinism
// contract. Slow mode means calling Audit() after every workload event; fast
// mode means calling it at epoch boundaries — the check set is identical.

#ifndef VUSION_SRC_CHAOS_INVARIANT_AUDITOR_H_
#define VUSION_SRC_CHAOS_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/audit.h"

namespace vusion {

class FusionEngine;
class Machine;
class MetricsRegistry;

struct AuditReport {
  bool ok = true;
  std::uint64_t checks = 0;
  std::vector<std::string> violations;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(Machine& machine) : machine_(&machine) {}

  // Runs the full machine-wide check suite. `engine` (may be null) additionally
  // audits the installed fusion engine's structures against the kernel.
  AuditReport Audit(FusionEngine* engine = nullptr);

  [[nodiscard]] std::uint64_t audits_run() const { return audits_run_; }
  [[nodiscard]] std::uint64_t checks_total() const { return checks_total_; }

  void ExportMetrics(MetricsRegistry& metrics) const;

 private:
  Machine* machine_;
  std::uint64_t audits_run_ = 0;
  std::uint64_t audits_failed_ = 0;
  std::uint64_t checks_total_ = 0;
};

}  // namespace vusion

#endif  // VUSION_SRC_CHAOS_INVARIANT_AUDITOR_H_
