// Benchmark driver: runs one named workload from its seed, for about --seconds
// of host time, and prints one JSON report line.
//
//   perfbench_driver --workload <spec_access|scan_churn|coa_refault>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// The run repeats whole iterations (fresh scenario, set-up, measured phase) and
// reports medians of host times normalized by a fixed speed probe run between
// the measured phase's segments. Every iteration hashes the simulated outcome
// into a digest; iterations of one seed must agree, and run.py compares the
// digest with the one recorded in digests.json. Everything here is host time
// unless it says simulated. With --trace 1, untraced and traced iterations
// alternate: traced ones put forwarding wrappers in the engine's daemon and
// sharing-policy slots, time each wake-up and fault, sample every Nth access,
// and afterwards replay the captured address stream through standalone TLB,
// cache, physical-memory and latency-model instances to price each component
// per call.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/phys/content_isa.h"

extern char** environ;

namespace vusion::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NsSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr std::size_t kAccessSampleEvery = 16;
constexpr std::size_t kCapturePerPhase = 16384;
constexpr std::size_t kMinReplayCalls = 2'000'000;
constexpr std::size_t kVerifyOneIn = 16;
// The measured phase is timed in kSegments segments with a speed probe before,
// between and after them.
constexpr std::size_t kSegments = 16;
// Fixed scale of the normalized times: host seconds scaled to a machine on
// which SpeedProbe::Run takes this long (README.md).
constexpr double kReferenceProbeS = 0.0025;

// Host-time spans and samples of one traced iteration.
struct Spans {
  std::uint64_t gen_ns = 0;    // workload: generating operations
  std::uint64_t exec_ns = 0;   // issuing them (nested wake-ups and faults included)
  std::uint64_t scan_ns = 0;   // fusion: every daemon wake-up
  std::uint64_t fault_ns = 0;  // fusion: every sharing-policy fault
  std::uint64_t scan_in_exec_ns = 0;
  std::uint64_t fault_in_exec_ns = 0;
  std::uint64_t wakes = 0;
  std::uint64_t policy_calls = 0;
  std::uint64_t generated_ops = 0;
  std::vector<std::uint64_t> wake_samples;
  std::vector<std::uint64_t> fault_samples;   // faults the policy resolved
  std::vector<std::uint64_t> access_samples;  // accesses that ran no daemon and no fault
};

class TimedDaemon final : public Daemon {
 public:
  TimedDaemon(Daemon& inner, Spans& spans) : inner_(&inner), spans_(&spans) {}
  [[nodiscard]] SimTime next_run() const override { return inner_->next_run(); }
  void Run() override {
    const auto start = Clock::now();
    inner_->Run();
    const std::uint64_t ns = NsSince(start);
    spans_->scan_ns += ns;
    spans_->wake_samples.push_back(ns);
    ++spans_->wakes;
  }

 private:
  Daemon* inner_;
  Spans* spans_;
};

class TimedPolicy final : public SharingPolicy {
 public:
  TimedPolicy(SharingPolicy& inner, Spans& spans) : inner_(&inner), spans_(&spans) {}
  bool HandleFault(Process& process, const PageFault& fault) override {
    const auto start = Clock::now();
    const bool handled = inner_->HandleFault(process, fault);
    const std::uint64_t ns = NsSince(start);
    spans_->fault_ns += ns;
    ++spans_->policy_calls;
    if (handled) {
      spans_->fault_samples.push_back(ns);
    }
    return handled;
  }
  bool OnUnmap(Process& process, Vpn vpn) override { return inner_->OnUnmap(process, vpn); }
  bool AllowCollapse(Process& process, Vpn base) override {
    return inner_->AllowCollapse(process, base);
  }
  bool PrepareCollapse(Process& process, Vpn base) override {
    return inner_->PrepareCollapse(process, base);
  }
  void OnUnregister(Process& process, Vpn start, std::uint64_t pages) override {
    inner_->OnUnregister(process, start, pages);
  }
  [[nodiscard]] bool Owns(const Process& process, Vpn vpn) const override {
    return inner_->Owns(process, vpn);
  }
  void OnProcessDestroy(Process& process) override { inner_->OnProcessDestroy(process); }

 private:
  SharingPolicy* inner_;
  Spans* spans_;
};

// Puts the timing wrappers in the engine's slots for its lifetime. The
// scenarios run no other daemon (khugepaged is off), so the wrapper takes the
// engine's place in the schedule and the simulation is unchanged.
class Tracer {
 public:
  Tracer(Scenario& scenario, Spans& spans)
      : machine_(&scenario.machine()),
        engine_(scenario.engine()),
        daemon_(*engine_, spans),
        policy_(*engine_, spans) {
    machine_->RemoveDaemon(engine_);
    machine_->AddDaemon(&daemon_);
    machine_->SetSharingPolicy(&policy_);
  }
  ~Tracer() {
    machine_->RemoveDaemon(&daemon_);
    machine_->AddDaemon(engine_);
    machine_->SetSharingPolicy(engine_);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Machine* machine_;
  FusionEngine* engine_;
  TimedDaemon daemon_;
  TimedPolicy policy_;
};

// Host cost per call of each access-path component, replayed on standalone
// instances (the machine's own memory for the read, which is const).
struct ReplayCosts {
  double tlb_ns = 0;
  double l1_ns = 0;
  double llc_ns = 0;
  double read_ns = 0;
  double charge_ns = 0;
};

struct Captured {
  std::uint32_t proc;
  VirtAddr addr;
};

struct Iteration {
  bool traced = false;
  bool ok = true;
  std::string error;
  double setup_s = 0;                 // raw host seconds
  std::vector<double> segment_s;      // raw host seconds of each segment, idle included
  std::vector<double> probe_s;        // SpeedProbe before, between and after the segments
  std::uint64_t accesses = 0;
  std::uint64_t digest = 0;
  SimTime sim_ns = 0;
  MetricsSnapshot delta;  // simulated counters gained in the measured phase
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::int64_t verify_mismatches = -1;  // -1: not verified
  std::uint64_t verified = 0;
  Spans spans;
  ReplayCosts replay;
};

volatile std::uint64_t g_sink = 0;

// A fixed piece of simulator-like host work: hash-map lookups, a 16-way
// set-associative tag search over 1 MB that replaces the smallest tag, and a
// sort. It calls no repository code, so no change under src/ moves it; its
// time says how fast the host runs such code at that moment. Neighbours on a
// shared host (SMT siblings, cache thrashing) slow it down together with the
// simulator, by up to about 2x for minutes at a time.
class SpeedProbe {
 public:
  SpeedProbe() {
    std::uint64_t x = 0x5eed;
    for (int i = 0; i < 32768; ++i) {
      x = Next(x);
      map_[x] = static_cast<std::uint64_t>(i);
      keys_.push_back(x);
    }
    tags_.assign(std::size_t{1} << 17, 0);
    scratch_.resize(8192);
  }

  // Host seconds of one fixed round of work.
  double Run() {
    const auto start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 40000; ++i) {
      x = Next(x);
      const auto it = map_.find(keys_[x % keys_.size()] ^ static_cast<std::uint64_t>(i & 1));
      if (it != map_.end()) {
        acc += it->second;
      }
    }
    for (int i = 0; i < 40000; ++i) {
      x = Next(x);
      std::uint64_t* ways = &tags_[((x >> 6) & 8191) * 16];
      const std::uint64_t tag = x >> 19;
      std::size_t victim = 0;
      bool hit = false;
      for (std::size_t w = 0; w < 16 && !hit; ++w) {
        hit = ways[w] == tag;
        victim = ways[w] < ways[victim] ? w : victim;
      }
      if (!hit) {
        ways[victim] = tag;
      }
      acc += hit ? 1 : 0;
    }
    for (std::uint64_t& v : scratch_) {
      x = Next(x);
      v = x;
    }
    std::sort(scratch_.begin(), scratch_.end());
    g_sink = acc + scratch_[scratch_.size() / 2];
    return SecondsBetween(start, Clock::now());
  }

 private:
  static std::uint64_t Next(std::uint64_t x) {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    return x ^ (x << 17);
  }

  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> scratch_;
};

double RawWall(const Iteration& it) {
  double wall = 0;
  for (const double s : it.segment_s) {
    wall += s;
  }
  return wall;
}

// Segment s scaled by the mean of the probes around it.
double NormalizedSegment(const Iteration& it, std::size_t s) {
  return it.segment_s[s] * kReferenceProbeS / ((it.probe_s[s] + it.probe_s[s + 1]) / 2);
}

double NormalizedWall(const Iteration& it) {
  double wall = 0;
  for (std::size_t s = 0; s < it.segment_s.size(); ++s) {
    wall += NormalizedSegment(it, s);
  }
  return wall;
}

double NormalizedSetup(const Iteration& it) {
  return it.setup_s * kReferenceProbeS / it.probe_s.front();
}

// --- Simulated digest --------------------------------------------------------

class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    Add(std::uint64_t{s.size()});
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// FusionStats, every simulated metric, per-process TLB counts and the final
// simulated clock. The scan.* counters are left out: they count speculative
// host-side hashing and vary with thread interleaving.
std::uint64_t Digest(Scenario& scenario, const MetricsSnapshot& metrics) {
  Fnv fnv;
  const FusionStats& s = scenario.engine()->stats();
  for (const std::uint64_t v : {s.pages_scanned, s.merges, s.fake_merges, s.unmerges_cow,
                                s.unmerges_coa, s.zero_page_merges, s.full_scans,
                                s.thp_splits}) {
    fnv.Add(v);
  }
  for (const std::uint64_t v : s.merges_by_type) {
    fnv.Add(v);
  }
  std::vector<const MetricsSnapshot::Entry*> entries;
  for (const MetricsSnapshot::Entry& e : metrics.entries) {
    if (e.name.rfind("scan.", 0) != 0) {
      entries.push_back(&e);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->Key() < b->Key(); });
  for (const MetricsSnapshot::Entry* e : entries) {
    fnv.Add(e->Key());
    fnv.Add(std::uint64_t{static_cast<std::uint8_t>(e->kind)});
    fnv.Add(e->count);
    fnv.Add(e->value);
    fnv.Add(e->min);
    fnv.Add(e->max);
    for (const std::uint64_t b : e->buckets) {
      fnv.Add(b);
    }
  }
  Machine& machine = scenario.machine();
  for (const auto& process : machine.processes()) {
    if (process != nullptr) {
      fnv.Add(process->address_space().tlb().hits());
      fnv.Add(process->address_space().tlb().misses());
    }
  }
  fnv.Add(std::uint64_t{machine.clock().now()});
  fnv.Add(machine.total_faults());
  return fnv.value();
}

void TlbTotals(Machine& machine, std::uint64_t& hits, std::uint64_t& misses) {
  hits = 0;
  misses = 0;
  for (const auto& process : machine.processes()) {
    if (process != nullptr) {
      hits += process->address_space().tlb().hits();
      misses += process->address_space().tlb().misses();
    }
  }
}

// --- Component replays --------------------------------------------------------

template <typename Fn>
double NsPerCall(std::size_t calls_per_pass, Fn&& pass) {
  if (calls_per_pass == 0) {
    return 0;
  }
  const std::size_t passes = (kMinReplayCalls + calls_per_pass - 1) / calls_per_pass;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < passes; ++i) {
    pass();
  }
  return static_cast<double>(NsSince(start)) / static_cast<double>(passes * calls_per_pass);
}

ReplayCosts ReplayComponents(Machine& machine, const std::vector<Process*>& procs,
                             const std::vector<Captured>& captured, std::uint64_t seed) {
  struct Ref {
    std::uint32_t proc;
    Vpn vpn;
    FrameId frame;
    std::size_t offset;
    PhysAddr paddr;
  };
  std::vector<Ref> refs;
  refs.reserve(captured.size());
  for (const Captured& c : captured) {
    const Vpn vpn = VaddrToVpn(c.addr);
    const FrameId frame = procs[c.proc]->TranslateFrame(vpn);
    if (frame == kInvalidFrame) {
      continue;
    }
    const std::size_t offset = c.addr & (kPageSize - 8);
    refs.push_back(Ref{c.proc, vpn, frame, offset,
                       static_cast<PhysAddr>(frame) * kPageSize + offset});
  }
  ReplayCosts costs;
  std::uint64_t sink = 0;

  std::vector<Tlb> tlbs;
  tlbs.reserve(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    tlbs.emplace_back(kDefaultTlbEntries);
  }
  costs.tlb_ns = NsPerCall(refs.size(), [&] {
    for (const Ref& r : refs) {
      Tlb& tlb = tlbs[r.proc];
      if (tlb.Lookup(r.vpn).has_value()) {
        ++sink;
      } else {
        tlb.Insert(r.vpn, Pte{r.frame, kPtePresent});
      }
    }
  });

  // L1 first; the LLC sees the L1 misses, as on the machine's access path.
  const LatencyConfig& lc = machine.latency().config();
  std::vector<SimTime> level_cost(refs.size(), lc.dram_row_hit);
  Llc l1(machine.config().l1_cache);
  std::vector<std::size_t> l1_misses;
  costs.l1_ns = NsPerCall(refs.size(), [&] {
    l1_misses.clear();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (l1.Access(refs[i].paddr)) {
        level_cost[i] = lc.l1_hit;
      } else {
        l1_misses.push_back(i);
      }
    }
  });
  Llc llc(machine.config().cache);
  costs.llc_ns = NsPerCall(l1_misses.size(), [&] {
    for (const std::size_t i : l1_misses) {
      level_cost[i] = llc.Access(refs[i].paddr) ? lc.llc_hit : lc.dram_row_hit;
    }
  });

  const PhysicalMemory& memory = machine.memory();
  costs.read_ns = NsPerCall(refs.size(), [&] {
    for (const Ref& r : refs) {
      sink += memory.ReadU64(r.frame, r.offset);
    }
  });

  // The access path's charges: the TLB lookup, then the level that served the data.
  VirtualClock clock;
  LatencyModel latency(lc, clock, Rng(DeriveSeed(seed, 4)));
  costs.charge_ns = NsPerCall(2 * refs.size(), [&] {
    for (const SimTime cost : level_cost) {
      latency.Charge(lc.tlb_lookup);
      latency.Charge(cost);
    }
  });
  g_sink = sink + clock.now();
  return costs;
}

// --- Read-back check ----------------------------------------------------------

// Regenerates the measured phase's operations, keeps the last value written to
// a deterministic 1-in-kVerifyOneIn sample of addresses, and reads each back
// through the guest. Returns the number of mismatches.
std::int64_t VerifyReadBack(Workload& workload, std::uint64_t seed, std::uint64_t& checked) {
  struct Expect {
    std::uint32_t proc;
    VirtAddr addr;
    std::uint64_t value;
  };
  std::unordered_map<std::uint64_t, Expect> expected;
  Rng rng(DeriveSeed(seed, kOpsSalt));
  std::vector<Op> ops;
  for (std::size_t p = 0; p < workload.phase_count(); ++p) {
    ops.clear();
    workload.Generate(p, rng, ops);
    for (const Op& op : ops) {
      const std::uint64_t key = (std::uint64_t{op.proc} << 56) ^ op.addr;
      if (op.write && DeriveSeed(key, 5) % kVerifyOneIn == 0) {
        expected[key] = Expect{op.proc, op.addr, op.value};
      }
    }
  }
  std::int64_t mismatches = 0;
  for (const auto& [key, e] : expected) {
    if (workload.procs()[e.proc]->Read64(e.addr) != e.value) {
      ++mismatches;
    }
  }
  checked = expected.size();
  return mismatches;
}

// --- One iteration --------------------------------------------------------------

void Issue(const std::vector<Process*>& procs, const std::vector<Op>& ops) {
  std::uint64_t sink = 0;
  for (const Op& op : ops) {
    Process& proc = *procs[op.proc];
    if (op.write) {
      proc.Write64(op.addr, op.value);
    } else {
      sink += proc.Read64(op.addr);
    }
  }
  g_sink = sink;
}

void IssueTraced(const std::vector<Process*>& procs, const std::vector<Op>& ops, Spans& spans,
                 std::vector<Captured>& captured) {
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Process& proc = *procs[op.proc];
    if (i < kCapturePerPhase) {
      captured.push_back(Captured{op.proc, op.addr});
    }
    const bool sampled = i % kAccessSampleEvery == 0;
    const std::uint64_t wakes = spans.wakes;
    const std::uint64_t calls = spans.policy_calls;
    const auto start = sampled ? Clock::now() : Clock::time_point{};
    if (op.write) {
      proc.Write64(op.addr, op.value);
    } else {
      sink += proc.Read64(op.addr);
    }
    if (sampled && spans.wakes == wakes && spans.policy_calls == calls) {
      spans.access_samples.push_back(NsSince(start));
    }
  }
  g_sink = sink;
}

Iteration RunIteration(const std::string& name, std::uint64_t seed, bool traced, bool verify,
                       Clock::time_point setup_start, SpeedProbe& probe) {
  Iteration it;
  it.traced = traced;
  try {
    std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
    workload->Setup();
    it.setup_s = SecondsBetween(setup_start, Clock::now());
    Scenario& scenario = workload->scenario();
    Machine& machine = scenario.machine();
    const std::vector<Process*>& procs = workload->procs();
    const MetricsSnapshot before = scenario.CollectMetrics();
    std::uint64_t tlb_hits0 = 0;
    std::uint64_t tlb_misses0 = 0;
    TlbTotals(machine, tlb_hits0, tlb_misses0);
    const SimTime sim0 = machine.clock().now();
    std::vector<Captured> captured;
    {
      std::optional<Tracer> tracer;
      if (traced) {
        tracer.emplace(scenario, it.spans);
      }
      Spans& spans = it.spans;
      Rng rng(DeriveSeed(seed, kOpsSalt));
      std::vector<Op> ops;
      const std::size_t phases = workload->phase_count();
      for (std::size_t segment = 0; segment < kSegments; ++segment) {
        it.probe_s.push_back(probe.Run());
        const auto segment_start = Clock::now();
        for (std::size_t p = segment * phases / kSegments; p < (segment + 1) * phases / kSegments;
             ++p) {
          const std::size_t native = traced ? 0 : workload->RunNative(p, rng);
          if (native > 0) {
            it.accesses += native;
          } else {
            ops.clear();
            const auto gen_start = Clock::now();
            workload->Generate(p, rng, ops);
            it.accesses += ops.size();
            if (traced) {
              spans.gen_ns += NsSince(gen_start);
              spans.generated_ops += ops.size();
              const std::uint64_t scan0 = spans.scan_ns;
              const std::uint64_t fault0 = spans.fault_ns;
              const auto exec_start = Clock::now();
              IssueTraced(procs, ops, spans, captured);
              spans.exec_ns += NsSince(exec_start);
              spans.scan_in_exec_ns += spans.scan_ns - scan0;
              spans.fault_in_exec_ns += spans.fault_ns - fault0;
            } else {
              Issue(procs, ops);
            }
          }
          if (const SimTime idle = workload->idle_after(p); idle > 0) {
            scenario.RunFor(idle);
          }
        }
        it.segment_s.push_back(SecondsBetween(segment_start, Clock::now()));
      }
      it.probe_s.push_back(probe.Run());
    }
    it.sim_ns = machine.clock().now() - sim0;
    const MetricsSnapshot after = scenario.CollectMetrics();
    it.delta = after.Since(before);
    TlbTotals(machine, it.tlb_hits, it.tlb_misses);
    it.tlb_hits -= tlb_hits0;
    it.tlb_misses -= tlb_misses0;
    it.digest = Digest(scenario, after);
    if (traced) {
      it.replay = ReplayComponents(machine, procs, captured, seed);
    }
    if (verify) {
      it.verify_mismatches = VerifyReadBack(*workload, seed, it.verified);
      it.ok = it.verify_mismatches == 0;
      if (!it.ok) {
        it.error = "read-back mismatch";
      }
    }
  } catch (const std::exception& e) {
    it.ok = false;
    it.error = e.what();
  }
  return it;
}

// --- Reporting ------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Json Metric(double value, const char* unit) {
  Json m = Json::Object();
  m.Set("value", value);
  m.Set("unit", unit);
  return m;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Time metrics are normalized by the speed probe (kReferenceProbeS): the
// host's speed drifts by up to 2x over minutes as neighbours come and go, and
// the probe taken around each segment cancels most of that drift. wall_s sums,
// over the segments, the median across iterations of the normalized segment;
// setup_s is the median of the normalized set-up times.
Json EndToEndMetrics(const std::vector<const Iteration*>& runs) {
  std::vector<double> setup;
  std::vector<std::vector<double>> segments(kSegments);
  const Iteration* first = nullptr;
  for (const Iteration* it : runs) {
    if (!it->ok || it->segment_s.size() != kSegments) {
      continue;
    }
    first = first == nullptr ? it : first;
    setup.push_back(NormalizedSetup(*it));
    for (std::size_t s = 0; s < kSegments; ++s) {
      segments[s].push_back(NormalizedSegment(*it, s));
    }
  }
  double wall = 0;
  for (const std::vector<double>& times : segments) {
    wall += Median(times);
  }
  const double accesses = first != nullptr ? static_cast<double>(first->accesses) : 0;
  const double scanned =
      first != nullptr ? static_cast<double>(first->delta.CounterValue("fusion.pages_scanned")) : 0;
  Json m = Json::Object();
  m.Set("wall_s", Metric(wall, "s"));
  m.Set("setup_s", Metric(Median(setup), "s"));
  m.Set("accesses_per_s", Metric(Ratio(accesses, wall), "1/s"));
  m.Set("pages_scanned_per_s", Metric(Ratio(scanned, wall), "1/s"));
  m.Set("peak_rss_mb", Metric(PeakRssMb(), "MB"));
  return m;
}

// Per-layer metrics over the traced iterations (summed, so ratios weigh every
// iteration by its work), plus the closure and dominant-layer checks.
Json PerLayerMetrics(const std::string& workload, const std::vector<const Iteration*>& traced,
                     const std::vector<const Iteration*>& untraced, Json& checks) {
  Spans sum;
  double wall = 0;
  double accesses = 0;
  double sim_ns = 0;
  std::uint64_t tlb_hits = 0, tlb_misses = 0;
  ReplayCosts replay;
  const auto n = static_cast<double>(traced.size());
  std::uint64_t l1_hits = 0, l1_misses = 0, llc_hits = 0, llc_misses = 0;
  std::uint64_t row_hits = 0, row_conflicts = 0, pool_draws = 0, buddy_allocs = 0;
  std::uint64_t scanned = 0, merged = 0, coa = 0, cow = 0, spec = 0, stale = 0;
  for (const Iteration* it : traced) {
    const Spans& s = it->spans;
    sum.gen_ns += s.gen_ns;
    sum.exec_ns += s.exec_ns;
    sum.scan_ns += s.scan_ns;
    sum.fault_ns += s.fault_ns;
    sum.scan_in_exec_ns += s.scan_in_exec_ns;
    sum.fault_in_exec_ns += s.fault_in_exec_ns;
    sum.generated_ops += s.generated_ops;
    sum.wake_samples.insert(sum.wake_samples.end(), s.wake_samples.begin(), s.wake_samples.end());
    sum.fault_samples.insert(sum.fault_samples.end(), s.fault_samples.begin(),
                             s.fault_samples.end());
    sum.access_samples.insert(sum.access_samples.end(), s.access_samples.begin(),
                              s.access_samples.end());
    wall += RawWall(*it);
    accesses += static_cast<double>(it->accesses);
    sim_ns += static_cast<double>(it->sim_ns);
    tlb_hits += it->tlb_hits;
    tlb_misses += it->tlb_misses;
    replay.tlb_ns += it->replay.tlb_ns / n;
    replay.l1_ns += it->replay.l1_ns / n;
    replay.llc_ns += it->replay.llc_ns / n;
    replay.read_ns += it->replay.read_ns / n;
    replay.charge_ns += it->replay.charge_ns / n;
    const MetricsSnapshot& d = it->delta;
    l1_hits += d.CounterValue("cache.hits", {{"level", "l1"}});
    l1_misses += d.CounterValue("cache.misses", {{"level", "l1"}});
    llc_hits += d.CounterValue("cache.hits", {{"level", "llc"}});
    llc_misses += d.CounterValue("cache.misses", {{"level", "llc"}});
    row_hits += d.CounterValue("dram.row_hits");
    row_conflicts += d.CounterValue("dram.row_conflicts");
    pool_draws += d.CounterValue("pool.draws");
    buddy_allocs += d.CounterValue("buddy.allocs");
    scanned += d.CounterValue("fusion.pages_scanned");
    merged += d.CounterValue("fusion.merges") + d.CounterValue("fusion.fake_merges");
    coa += d.CounterValue("fusion.unmerges_coa");
    cow += d.CounterValue("fusion.unmerges_cow");
    spec += d.CounterValue("scan.speculative_hashes");
    stale += d.CounterValue("scan.speculative_stale");
  }
  // Disjoint spans of the measured phase: generation, the access path's own
  // time (issue minus the wake-ups and faults nested in it), every wake-up,
  // every fault. The rest (idle-loop stepping, loop overhead) is other_s.
  const double gen_s = static_cast<double>(sum.gen_ns) * 1e-9;
  const double access_s =
      static_cast<double>(sum.exec_ns - sum.scan_in_exec_ns - sum.fault_in_exec_ns) * 1e-9;
  const double scan_s = static_cast<double>(sum.scan_ns) * 1e-9;
  const double fault_s = static_cast<double>(sum.fault_ns) * 1e-9;
  const double other_s = wall - gen_s - access_s - scan_s - fault_s;

  std::vector<double> traced_wall, untraced_wall;
  for (const Iteration* it : traced) {
    traced_wall.push_back(NormalizedWall(*it));
  }
  for (const Iteration* it : untraced) {
    untraced_wall.push_back(NormalizedWall(*it));
  }

  Json m = Json::Object();
  m.Set("workload.gen_ns_per_op",
        Metric(Ratio(static_cast<double>(sum.gen_ns), static_cast<double>(sum.generated_ops)),
               "ns"));
  m.Set("kernel.access_ns.p50", Metric(Percentile(sum.access_samples, 0.50), "ns"));
  m.Set("kernel.access_ns.p99", Metric(Percentile(sum.access_samples, 0.99), "ns"));
  m.Set("kernel.accesses", Metric(accesses / n, "count"));
  m.Set("mmu.tlb_hit_frac",
        Metric(Ratio(static_cast<double>(tlb_hits), static_cast<double>(tlb_hits + tlb_misses)),
               "frac"));
  m.Set("mmu.tlb_lookup_ns", Metric(replay.tlb_ns, "ns"));
  m.Set("cache.l1_hit_frac",
        Metric(Ratio(static_cast<double>(l1_hits), static_cast<double>(l1_hits + l1_misses)),
               "frac"));
  m.Set("cache.llc_hit_frac",
        Metric(Ratio(static_cast<double>(llc_hits), static_cast<double>(llc_hits + llc_misses)),
               "frac"));
  m.Set("cache.l1_access_ns", Metric(replay.l1_ns, "ns"));
  m.Set("cache.llc_access_ns", Metric(replay.llc_ns, "ns"));
  m.Set("dram.row_hit_frac",
        Metric(Ratio(static_cast<double>(row_hits), static_cast<double>(row_hits + row_conflicts)),
               "frac"));
  m.Set("phys.read_u64_ns", Metric(replay.read_ns, "ns"));
  m.Set("phys.pool_draws", Metric(static_cast<double>(pool_draws) / n, "count"));
  m.Set("phys.buddy_allocs", Metric(static_cast<double>(buddy_allocs) / n, "count"));
  m.Set("sim.charge_ns", Metric(replay.charge_ns, "ns"));
  m.Set("sim.clock_ns", Metric(sim_ns / n, "sim_ns"));
  m.Set("fusion.scan_s", Metric(scan_s / n, "s"));
  m.Set("fusion.wake_ns.p50", Metric(Percentile(sum.wake_samples, 0.50), "ns"));
  m.Set("fusion.wake_ns.p99", Metric(Percentile(sum.wake_samples, 0.99), "ns"));
  m.Set("fusion.ns_per_page",
        Metric(Ratio(static_cast<double>(sum.scan_ns), static_cast<double>(scanned)), "ns"));
  m.Set("fusion.merge_yield",
        Metric(Ratio(static_cast<double>(merged), static_cast<double>(scanned)), "frac"));
  m.Set("fusion.fault_s", Metric(fault_s / n, "s"));
  m.Set("fusion.fault_ns.p50", Metric(Percentile(sum.fault_samples, 0.50), "ns"));
  m.Set("fusion.fault_ns.p99", Metric(Percentile(sum.fault_samples, 0.99), "ns"));
  m.Set("fusion.unmerges_coa", Metric(static_cast<double>(coa) / n, "count"));
  m.Set("fusion.unmerges_cow", Metric(static_cast<double>(cow) / n, "count"));
  m.Set("host.spec_stale_frac",
        Metric(Ratio(static_cast<double>(stale), static_cast<double>(spec)), "frac"));
  m.Set("other_s", Metric(other_s / n, "s"));
  m.Set("trace_overhead_frac",
        Metric(Ratio(Median(traced_wall), Median(untraced_wall)) - 1.0, "frac"));

  // Layer shares of the traced wall time; the largest is the dominant layer.
  const std::pair<const char*, double> layers[] = {
      {"workload", gen_s}, {"kernel", access_s}, {"fusion", scan_s + fault_s}, {"other", other_s}};
  Json shares = Json::Object();
  const char* dominant = layers[0].first;
  double dominant_s = layers[0].second;
  for (const auto& [layer, seconds] : layers) {
    shares.Set(layer, Ratio(seconds, wall));
    if (seconds > dominant_s) {
      dominant = layer;
      dominant_s = seconds;
    }
  }
  Json detail = Json::Object();
  detail.Set("fusion_scan", Ratio(scan_s, wall));
  detail.Set("fusion_fault", Ratio(fault_s, wall));
  checks.Set("layer_share", std::move(shares));
  checks.Set("fusion_share_detail", std::move(detail));
  // The layer each workload was sized to load (README.md). Reported, not
  // enforced: a change that speeds that layer up may rightly move the answer.
  const char* predicted = workload == "spec_access" ? "kernel" : "fusion";
  checks.Set("dominant_layer", dominant);
  checks.Set("predicted_layer", predicted);
  checks.Set("prediction_met", std::strcmp(dominant, predicted) == 0);
  // The spans are disjoint intervals inside the measured phase, so neither the
  // access path's own time nor the remainder can be negative.
  checks.Set("closure_ok", access_s >= 0 && other_s >= -1e-6 * wall);
  return m;
}

bool ParseArgs(int argc, char** argv, std::string& workload, std::uint64_t& seed,
               double& seconds, bool& trace) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      const long t = std::strtol(value, &end, 10);
      if (t != 0 && t != 1) {
        return false;
      }
      trace = t == 1;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && seconds >= 0 && seconds <= 600;
}

// Scenario and the engines read VUSION_* overrides (scan threads, delta scan,
// streaming, chunk size, content ISA, unbatched charges); any of them would
// silently change the program being measured.
bool EnvironmentIsClean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "VUSION_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      clean = false;
    }
  }
  return clean;
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  if (!ParseArgs(argc, argv, name, seed, seconds, trace)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  if (MakeWorkload(name, seed) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  if (!EnvironmentIsClean()) {
    return 2;
  }

  // Whole iterations until the time is used up; traced runs alternate
  // untraced and traced iterations so the overhead is measured in one process.
  const auto deadline = process_start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
  const std::size_t min_iterations = trace ? 2 : 1;
  SpeedProbe probe;
  std::vector<Iteration> iterations;
  while (iterations.size() < min_iterations || Clock::now() < deadline) {
    const std::size_t i = iterations.size();
    const bool traced = trace && i % 2 == 1;
    const bool verify = i < min_iterations;
    iterations.push_back(
        RunIteration(name, seed, traced, verify, i == 0 ? process_start : Clock::now(), probe));
  }

  std::vector<const Iteration*> untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  bool agree = true;
  Json runs = Json::Array();
  for (const Iteration& it : iterations) {
    (it.traced ? traced : untraced).push_back(&it);
    attempted += it.accesses;
    if (!it.ok) {
      failed += it.accesses;
    }
    agree = agree && it.digest == iterations.front().digest;
    Json run = Json::Object();
    run.Set("traced", it.traced);
    run.Set("ok", it.ok);
    if (!it.ok) {
      run.Set("error", it.error);
    }
    run.Set("setup_s", it.setup_s);
    run.Set("wall_s", RawWall(it));
    if (it.segment_s.size() == kSegments) {
      run.Set("normalized_wall_s", NormalizedWall(it));
      run.Set("normalized_setup_s", NormalizedSetup(it));
      run.Set("probe_ms", Median(it.probe_s) * 1e3);
    }
    run.Set("accesses", it.accesses);
    run.Set("pages_scanned", it.delta.CounterValue("fusion.pages_scanned"));
    run.Set("sim_ns", it.sim_ns);
    run.Set("digest", Hex(it.digest));
    if (it.verify_mismatches >= 0) {
      run.Set("verified_words", it.verified);
      run.Set("verify_mismatches", it.verify_mismatches);
    }
    runs.Push(std::move(run));
  }

  Json report = Json::Object();
  Json checks = Json::Object();
  report.Set("workload", name);
  report.Set("seed", seed);
  report.Set("trace", trace);
  report.Set("host_cpus", static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Set("content_isa", ActiveContentOps().name);
  report.Set("reference_probe_ms", kReferenceProbeS * 1e3);
  report.Set("digest", Hex(iterations.front().digest));
  report.Set("digests_agree", agree);
  report.Set("attempted", attempted);
  report.Set("failed", failed);
  report.Set("metrics", trace ? PerLayerMetrics(name, traced, untraced, checks)
                              : EndToEndMetrics(untraced));
  report.Set("checks", std::move(checks));
  report.Set("iterations", std::move(runs));
  std::printf("%s\n", report.Dump(0).c_str());
  return 0;
}

}  // namespace
}  // namespace vusion::perfbench

int main(int argc, char** argv) { return vusion::perfbench::Main(argc, argv); }
