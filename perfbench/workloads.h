// The benchmark's three workloads. Each is built from its seed alone and loads
// a different layer of the simulator (README.md in this directory says why each
// was chosen and what it is predicted to move).

#ifndef VUSION_PERFBENCH_WORKLOADS_H_
#define VUSION_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/workload/scenario.h"

namespace vusion::perfbench {

// One timed guest access, issued through Process::Read64 / Process::Write64.
struct Op {
  std::uint32_t proc = 0;  // index into Workload::procs()
  bool write = false;
  VirtAddr addr = 0;
  std::uint64_t value = 0;
};

// Independent per-purpose seeds derived from the command-line seed (SplitMix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

// Salt of the RNG stream the measured phase draws its operations from.
constexpr std::uint64_t kOpsSalt = 0x6f7073;

// Setup() creates the scenario and brings it to the state the measured phase
// starts from. The measured phase is phase_count() phases; each issues a batch
// of generated operations and then idles the machine for idle_after(phase), so
// the daemons run. Operations never depend on simulated state, so a phase's
// batch can be generated before it is issued, and regenerated afterwards to
// check what the guests read back.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void Setup() = 0;
  [[nodiscard]] virtual std::size_t phase_count() const = 0;
  // Appends phase `phase`'s operations, drawing from `rng`.
  virtual void Generate(std::size_t phase, Rng& rng, std::vector<Op>& ops) = 0;
  [[nodiscard]] virtual SimTime idle_after(std::size_t phase) const {
    (void)phase;
    return 0;
  }
  // Issues the phase through a library loop instead of Generate plus the
  // benchmark's own issue loop, drawing the identical RNG sequence. Returns the
  // number of accesses issued; 0 means the workload has no such loop.
  virtual std::size_t RunNative(std::size_t phase, Rng& rng) {
    (void)phase;
    (void)rng;
    return 0;
  }

  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  [[nodiscard]] const std::vector<Process*>& procs() const { return procs_; }

 protected:
  std::uint64_t seed_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<Process*> procs_;  // the processes operations target
};

// spec_access, scan_churn or coa_refault; null for any other name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, std::uint64_t seed);

}  // namespace vusion::perfbench

#endif  // VUSION_PERFBENCH_WORKLOADS_H_
