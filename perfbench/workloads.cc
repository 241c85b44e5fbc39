#include "perfbench/workloads.h"

#include "src/workload/spec_workload.h"

namespace vusion::perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::size_t kTailOffset = kPageSize - 8;

// The evaluation benches' scenario (bench/bench_common.h, EvalScenario): 256 MB
// host, the paper's scan rate of N=100 pages per T=20 ms, a 4096-frame pool.
ScenarioConfig EvalConfig(EngineKind kind, std::uint64_t seed) {
  ScenarioConfig config;
  config.machine.frame_count = 1u << 16;
  config.machine.seed = DeriveSeed(seed, 1);
  config.fusion.wake_period = 20 * kMillisecond;
  config.fusion.pages_per_wake = 100;
  config.fusion.pool_frames = 4096;
  config.engine = kind;
  return config;
}

VmImageSpec EvalImage() {
  VmImageSpec spec;
  spec.total_pages = 2048;  // 8 MB guests
  return spec;
}

// Figure 7's loop: the 16-program SPEC-like suite on VUsion next to three idle
// 8 MB guests, after 60 simulated seconds of fusion over the resident
// footprints. The measured phase is SpecWorkload::Run over every program.
class SpecAccess final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    scenario_ = std::make_unique<Scenario>(EvalConfig(EngineKind::kVUsion, seed_));
    for (std::uint64_t i = 0; i < 3; ++i) {
      scenario_->BootVm(EvalImage(), DeriveSeed(seed_, 10 + i));
    }
    for (const SyntheticBenchmark& bench : SpecWorkload::Suite()) {
      Process& proc = scenario_->machine().CreateProcess();
      procs_.push_back(&proc);
      prepared_.push_back(SpecWorkload::Prepare(proc, bench));
    }
    scenario_->RunFor(60 * kSecond);
  }

  [[nodiscard]] std::size_t phase_count() const override { return prepared_.size(); }

  // Draws exactly what SpecWorkload::Run draws, in the same order.
  void Generate(std::size_t phase, Rng& rng, std::vector<Op>& ops) override {
    const SpecWorkload::Prepared& prep = prepared_[phase];
    const SyntheticBenchmark& bench = *prep.bench;
    const auto hot_pages = std::max<std::size_t>(
        1, static_cast<std::size_t>(bench.hot_fraction *
                                    static_cast<double>(bench.footprint_pages)));
    const auto proc = static_cast<std::uint32_t>(phase);
    for (std::size_t op = 0; op < bench.ops; ++op) {
      const bool hot = rng.NextBool(bench.hot_access_prob);
      const std::size_t page =
          hot ? rng.NextBelow(hot_pages)
              : hot_pages + rng.NextBelow(bench.footprint_pages - hot_pages);
      const VirtAddr addr = prep.base + page * kPageSize + (rng.NextBelow(kPageSize / 8) * 8);
      const bool write = rng.NextBool(bench.write_ratio);
      ops.push_back(Op{proc, write, addr, write ? op : 0});
    }
  }

  std::size_t RunNative(std::size_t phase, Rng& rng) override {
    SpecWorkload::Run(*procs_[phase], prepared_[phase], rng);
    return prepared_[phase].bench->ops;
  }

 private:
  std::vector<SpecWorkload::Prepared> prepared_;
};

// KSM's hash/tree/merge work under content churn, with the streaming scan
// pipeline on two host threads. Four guests of near-duplicate pages: one
// shared pattern prefix plus an 8-byte tail tag; every fourth page carries a
// tag shared across guests (these merge), the rest are unique. Each 500 ms step
// rewrites the tags of a random eighth of the unique pages (their hashes go
// stale; none merge) and rewrites a few merged pages with their own tag, which
// breaks the merge through KSM's copy-on-write fault and lets the scanner merge
// them again.
class ScanChurn final : public Workload {
 public:
  using Workload::Workload;

  static constexpr std::size_t kVms = 4;
  static constexpr std::size_t kPages = 2048;
  static constexpr std::size_t kDuplicateGroups = 512;
  static constexpr std::size_t kSteps = 400;
  static constexpr double kRewriteFraction = 0.125;
  static constexpr std::size_t kCowWritesPerVm = 8;

  void Setup() override {
    ScenarioConfig config = EvalConfig(EngineKind::kKsm, seed_);
    // Two threads keep the default streaming pipeline within a 4-CPU host.
    config.fusion.scan_threads = 2;
    // A full pass over the 8192 pages every 500 ms step, so scanning dominates.
    config.fusion.pages_per_wake = 400;
    scenario_ = std::make_unique<Scenario>(config);
    const std::uint64_t prefix_seed = DeriveSeed(seed_, 2);
    for (std::size_t p = 0; p < kVms; ++p) {
      Process& vm = scenario_->machine().CreateProcess();
      procs_.push_back(&vm);
      bases_.push_back(vm.AllocateRegion(kPages, PageType::kAnonymous, true, false));
      for (std::size_t i = 0; i < kPages; ++i) {
        vm.SetupMapPattern(VaddrToVpn(bases_[p]) + i, prefix_seed);
        vm.Write64(TailAddr(p, i), Tag(p, i, 0));
      }
    }
    // Several full passes: the duplicates are merged when measurement starts.
    scenario_->RunFor(4 * kSecond);
  }

  [[nodiscard]] std::size_t phase_count() const override { return kSteps; }
  [[nodiscard]] SimTime idle_after(std::size_t) const override { return 500 * kMillisecond; }

  void Generate(std::size_t phase, Rng& rng, std::vector<Op>& ops) override {
    for (std::size_t p = 0; p < kVms; ++p) {
      const auto proc = static_cast<std::uint32_t>(p);
      for (std::size_t i = 0; i < kPages; ++i) {
        if (!Duplicate(i) && rng.NextBool(kRewriteFraction)) {
          ops.push_back(Op{proc, true, TailAddr(p, i), Tag(p, i, phase + 1)});
        }
      }
      for (std::size_t k = 0; k < kCowWritesPerVm; ++k) {
        const std::size_t i = 4 * rng.NextBelow(kPages / 4);
        ops.push_back(Op{proc, true, TailAddr(p, i), Tag(p, i, phase + 1)});
      }
    }
  }

 private:
  static bool Duplicate(std::size_t i) { return i % 4 == 0; }
  [[nodiscard]] VirtAddr TailAddr(std::size_t p, std::size_t i) const {
    return bases_[p] + i * kPageSize + kTailOffset;
  }
  // Duplicate pages keep one tag for good; unique tags change every generation.
  [[nodiscard]] std::uint64_t Tag(std::size_t p, std::size_t i, std::size_t generation) const {
    if (Duplicate(i)) {
      return 0x1000000 + i % kDuplicateGroups;
    }
    return DeriveSeed(seed_, (std::uint64_t{p} << 48) | (std::uint64_t{i} << 24) | generation);
  }

  std::vector<VirtAddr> bases_;
};

// VUsion's copy-on-access cost. Three booted guests each get an extra
// mergeable region; a read/write hot window slides across it phase by phase.
// Between phases the machine idles, so the scanner (working-set estimation,
// one idle round) fake-merges or merges the pages that went cold, and the
// window's return to them takes copy-on-access faults through the random pool.
class CoaRefault final : public Workload {
 public:
  using Workload::Workload;

  static constexpr std::size_t kVms = 3;
  static constexpr std::size_t kRegionPages = 2048;
  static constexpr std::size_t kWindowPages = 256;
  static constexpr std::size_t kStridePages = 256;
  static constexpr std::size_t kOpsPerVm = 1500;
  static constexpr std::size_t kPhases = 200;
  static constexpr double kWriteRatio = 0.3;

  void Setup() override {
    scenario_ = std::make_unique<Scenario>(EvalConfig(EngineKind::kVUsion, seed_));
    // Small guests keep scan rounds short, so cold pages merge within a few
    // phases and the scan work per refault stays low.
    VmImageSpec image;
    image.total_pages = 512;
    for (std::size_t p = 0; p < kVms; ++p) {
      Process& vm = scenario_->BootVm(image, DeriveSeed(seed_, 20 + p));
      procs_.push_back(&vm);
      bases_.push_back(vm.AllocateRegion(kRegionPages, PageType::kAnonymous, true, false));
      for (std::size_t i = 0; i < kRegionPages; ++i) {
        // A quarter of the region is identical across guests (real merges), the
        // rest is private (fake merges).
        const std::uint64_t content = i % 4 == 0 ? DeriveSeed(seed_, 3 + i)
                                                 : DeriveSeed(seed_, (p + 1) << 32 | i);
        vm.SetupMapPattern(VaddrToVpn(bases_[p]) + i, content);
      }
    }
    // Long enough for the cold region to be (fake) merged before measurement.
    scenario_->RunFor(10 * kSecond);
  }

  [[nodiscard]] std::size_t phase_count() const override { return kPhases; }
  [[nodiscard]] SimTime idle_after(std::size_t) const override { return kSecond; }

  void Generate(std::size_t phase, Rng& rng, std::vector<Op>& ops) override {
    for (std::size_t p = 0; p < kVms; ++p) {
      const auto proc = static_cast<std::uint32_t>(p);
      const std::size_t start = (phase * kStridePages + p * kRegionPages / kVms) % kRegionPages;
      for (std::size_t r = 0; r < kOpsPerVm; ++r) {
        const std::size_t page = (start + rng.NextBelow(kWindowPages)) % kRegionPages;
        const VirtAddr addr = bases_[p] + page * kPageSize + rng.NextBelow(kPageSize / 8) * 8;
        const bool write = rng.NextBool(kWriteRatio);
        ops.push_back(Op{proc, write, addr, write ? (std::uint64_t{phase} << 32 | r) : 0});
      }
    }
  }

 private:
  std::vector<VirtAddr> bases_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, std::uint64_t seed) {
  if (name == "spec_access") {
    return std::make_unique<SpecAccess>(seed);
  }
  if (name == "scan_churn") {
    return std::make_unique<ScanChurn>(seed);
  }
  if (name == "coa_refault") {
    return std::make_unique<CoaRefault>(seed);
  }
  return nullptr;
}

}  // namespace vusion::perfbench
