#include "src/chaos/invariant_auditor.h"

#include <cstddef>
#include <string>
#include <vector>

#include "src/fusion/fusion_engine.h"
#include "src/kernel/machine.h"
#include "src/kernel/process.h"
#include "src/sim/metrics.h"

namespace vusion {

AuditReport InvariantAuditor::Audit(FusionEngine* engine) {
  Machine& machine = *machine_;
  PhysicalMemory& memory = machine.memory();
  const FrameId frame_count = memory.frame_count();

  AuditContext ctx;
  ctx.machine = &machine;
  std::vector<std::uint32_t> mapping_count(frame_count, 0);
  std::vector<std::uint32_t> writable_count(frame_count, 0);
  ctx.mapping_count = &mapping_count;
  ctx.writable_count = &writable_count;

  // --- Census: every leaf mapping of every live process, huge entries
  // expanded to their subframes; page-table node frames claimed as owned.
  for (const auto& process : machine.processes()) {
    if (process == nullptr) {
      continue;
    }
    const std::uint32_t pid = process->id();
    PageTable& table = process->address_space().page_table();
    std::vector<FrameId> nodes;
    table.CollectNodeFrames(nodes);
    for (const FrameId frame : nodes) {
      ctx.OwnFrame(frame, "page_table");
      ctx.Check(memory.allocated(frame), [&] {
        return "pid " + std::to_string(pid) +
               ": page-table node backed by free frame " + std::to_string(frame);
      });
    }
    table.ForEachEntry(0, Vpn{1} << 36, [&](Vpn vpn, Pte& pte) {
      if (pte.frame == kInvalidFrame) {
        return;  // swapped-out marker: contents live in the engine's cache
      }
      const std::size_t span = pte.huge() ? kPagesPerHugePage : 1;
      if (!ctx.Check(pte.frame + span <= frame_count, [&] {
            return "pid " + std::to_string(pid) + " vpn " + std::to_string(vpn) +
                   ": PTE points past physical memory (frame " +
                   std::to_string(pte.frame) + ")";
          })) {
        return;
      }
      for (std::size_t i = 0; i < span; ++i) {
        ++mapping_count[pte.frame + i];
        if (pte.writable()) {
          ++writable_count[pte.frame + i];
        }
      }
    });
  }

  // --- TLB coherence: every cached translation must agree with the page table
  // it snapshots (AddressSpace models shootdown on every PTE mutation).
  for (const auto& process : machine.processes()) {
    if (process == nullptr) {
      continue;
    }
    const std::uint32_t pid = process->id();
    AddressSpace& as = process->address_space();
    as.tlb().ForEach([&](Vpn vpn, const Pte& cached) {
      const Pte* real = as.GetPte(vpn);
      if (!ctx.Check(real != nullptr && real->present() && !real->reserved_trap(),
                     [&] {
                       return "pid " + std::to_string(pid) + " vpn " +
                              std::to_string(vpn) +
                              ": TLB caches a dead translation";
                     })) {
        return;
      }
      ctx.Check(real->frame == cached.frame && real->huge() == cached.huge(), [&] {
        return "pid " + std::to_string(pid) + " vpn " + std::to_string(vpn) +
               ": TLB frame " + std::to_string(cached.frame) +
               " != table frame " + std::to_string(real->frame);
      });
      ctx.Check(!cached.writable() || real->writable(), [&] {
        return "pid " + std::to_string(pid) + " vpn " + std::to_string(vpn) +
               ": TLB grants write access the page table revoked";
      });
    });
  }

  // --- Engine structures (also fills ctx.engine_owned for the partition).
  if (engine != nullptr) {
    engine->AuditInvariants(ctx);
  }

  // --- Per-frame kernel invariants and the ownership partition.
  for (FrameId frame = 0; frame < frame_count; ++frame) {
    const std::uint32_t mapped = mapping_count[frame];
    const std::uint32_t refs = memory.refcount(frame);
    const bool owned = ctx.engine_owned.contains(frame);
    if (!memory.allocated(frame)) {
      ctx.Check(mapped == 0 && !owned, [&] {
        return "free frame " + std::to_string(frame) +
               " is still mapped or engine-owned";
      });
      continue;
    }
    ctx.Check(mapped > 0 || owned, [&] {
      return "allocated frame " + std::to_string(frame) +
             " has no owner (leak)";
    });
    ctx.Check(!(mapped > 0 && owned), [&] {
      return "frame " + std::to_string(frame) + " is both mapped and owned by " +
             std::string(ctx.engine_owned.at(frame));
    });
    if (refs > 0) {
      // Shared (fused or fork-CoW) frame: the refcount counts the sharers and
      // every sharer must have lost write access.
      ctx.Check(mapped == refs, [&] {
        return "frame " + std::to_string(frame) + " refcount " +
               std::to_string(refs) + " != " + std::to_string(mapped) +
               " mappings";
      });
      ctx.Check(writable_count[frame] == 0, [&] {
        return "shared frame " + std::to_string(frame) +
               " has a writable mapping";
      });
    } else {
      // Exclusive frame: at most one mapping (page-table nodes and engine
      // reserves are unmapped).
      ctx.Check(mapped <= 1, [&] {
        return "exclusive frame " + std::to_string(frame) + " mapped " +
               std::to_string(mapped) + " times";
      });
    }
  }

  // --- Cache hierarchy: per-frame resident-line counters must equal a recount
  // of the line directory (FlushFrame correctness).
  ctx.Check(machine.llc().ValidateFrameLineCounters(), [] {
    return std::string("LLC per-frame line counters disagree with residency");
  });
  ctx.Check(machine.l1().ValidateFrameLineCounters(), [] {
    return std::string("L1 per-frame line counters disagree with residency");
  });

  ++audits_run_;
  checks_total_ += ctx.checks;
  if (!ctx.ok()) {
    ++audits_failed_;
  }
  return AuditReport{ctx.ok(), ctx.checks, std::move(ctx.violations)};
}

void InvariantAuditor::ExportMetrics(MetricsRegistry& metrics) const {
  metrics.GetCounter("chaos.audits_run").Set(audits_run_);
  metrics.GetCounter("chaos.audits_failed").Set(audits_failed_);
  metrics.GetCounter("chaos.audit_checks").Set(checks_total_);
}

}  // namespace vusion
