#include "src/kernel/khugepaged.h"

#include <utility>
#include <vector>

#include "src/kernel/process.h"

namespace vusion {

Khugepaged::Khugepaged(Machine& machine, const KhugepagedConfig& config)
    : machine_(&machine), config_(config), current_n_(config.min_active_subpages) {}

void Khugepaged::AdaptThreshold() {
  if (!config_.adaptive_n) {
    current_n_ = config_.min_active_subpages;
    return;
  }
  const std::size_t free = machine_->buddy().free_count();
  if (free >= config_.pressure_high_frames) {
    current_n_ = config_.n_min;
  } else if (free <= config_.pressure_low_frames) {
    current_n_ = config_.n_max;
  } else {
    // Linear interpolation between the watermarks.
    const double span = static_cast<double>(config_.pressure_high_frames -
                                            config_.pressure_low_frames);
    const double frac =
        static_cast<double>(config_.pressure_high_frames - free) / span;
    current_n_ = config_.n_min +
                 static_cast<std::size_t>(frac * static_cast<double>(config_.n_max -
                                                                     config_.n_min));
  }
}

void Khugepaged::Run() {
  AdaptThreshold();
  // Flatten the 512-aligned candidate ranges of all THP-eligible VMAs and resume
  // from the cursor.
  std::vector<std::pair<Process*, Vpn>> ranges;
  for (const auto& process : machine_->processes()) {
    if (process == nullptr) {
      continue;
    }
    for (const VmArea& vma : process->address_space().vmas().areas()) {
      if (!vma.thp_eligible) {
        continue;
      }
      Vpn base = (vma.start + kPagesPerHugePage - 1) & ~(kPagesPerHugePage - 1);
      for (; base + kPagesPerHugePage <= vma.end(); base += kPagesPerHugePage) {
        ranges.emplace_back(process.get(), base);
      }
    }
  }
  if (!ranges.empty()) {
    for (std::size_t i = 0; i < config_.ranges_per_wake; ++i) {
      auto& [process, base] = ranges[range_cursor_ % ranges.size()];
      ++range_cursor_;
      TryCollapse(*process, base);
    }
  }
  next_run_ = machine_->clock().now() + config_.period;
}

bool Khugepaged::TryCollapse(Process& process, Vpn base) {
  AddressSpace& as = process.address_space();
  if (as.IsHuge(base)) {
    return false;
  }
  // Every subpage must be mapped; count activity.
  std::size_t active = 0;
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    const Pte* pte = as.GetPte(vpn);
    if (pte == nullptr || pte->flags == 0) {
      return false;
    }
    if (pte->accessed()) {
      ++active;
    }
  }
  if (active < current_n_) {
    return false;
  }
  ++attempts_;
  SharingPolicy* policy = machine_->sharing_policy();
  if (policy != nullptr) {
    if (!policy->AllowCollapse(process, base)) {
      return false;
    }
    if (!policy->PrepareCollapse(process, base)) {
      return false;  // unmerge incomplete (e.g. transient OOM): abandon collapse
    }
  }
  // Re-verify after preparation: all subpages must now be plain, exclusive pages.
  for (Vpn vpn = base; vpn < base + kPagesPerHugePage; ++vpn) {
    const Pte* pte = as.GetPte(vpn);
    if (pte == nullptr || !pte->present() || pte->reserved_trap() || pte->cow()) {
      return false;
    }
  }
  const FrameId block = machine_->buddy().AllocateOrder(kHugePageOrder);
  if (block == kInvalidFrame) {
    return false;  // fragmentation: no contiguous 2 MB block
  }
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().huge_collapse);
  PhysicalMemory& mem = machine_->memory();
  for (std::size_t i = 0; i < kPagesPerHugePage; ++i) {
    const Vpn vpn = base + i;
    const Pte* pte = as.GetPte(vpn);
    const FrameId old = pte->frame;
    mem.CopyFrame(block + static_cast<FrameId>(i), old);
    machine_->FlushFrame(old);
    machine_->buddy().Free(old);
  }
  as.CollapseToHuge(base, block, kPtePresent | kPteWritable | kPteAccessed);
  machine_->trace().Emit(machine_->clock().now(), TraceEventType::kCollapse, process.id(),
                         base, block);
  ++collapses_;
  return true;
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void Khugepaged::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(current_n_);
  w.U64(next_run_);
  w.U64(range_cursor_);
  w.U64(collapses_);
  w.U64(attempts_);
}

void Khugepaged::RestoreState(snapshot::SnapshotReader& r) {
  current_n_ = r.U64();
  next_run_ = r.U64();
  range_cursor_ = r.U64();
  collapses_ = r.U64();
  attempts_ = r.U64();
  // EnableKhugepaged registered the daemon before this restore, so the
  // machine's cached earliest deadline predates next_run_.
  machine_->DaemonDeadlinesMoved();
}

}  // namespace vusion
