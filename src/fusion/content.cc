#include "src/fusion/content.h"

namespace vusion {

bool ChargedContent::Matches(FrameId a, FrameId b) const {
  LatencyModel& lm = machine_->latency();
  lm.Charge(lm.config().content_compare);
  PhysicalMemory& memory = machine_->memory();
  if (memory.HashContent(a) != memory.HashContent(b)) {
    return false;
  }
  return memory.Compare(a, b) == 0;
}

int ChargedContent::HostOrder(FrameId a, FrameId b) const {
  PhysicalMemory& memory = machine_->memory();
  const std::uint64_t ha = memory.HashContent(a);
  const std::uint64_t hb = memory.HashContent(b);
  if (ha != hb) {
    return ha < hb ? -1 : 1;
  }
  // Hash collision (or a true match): resolve by bytes, keeping a total order.
  return memory.Compare(a, b);
}

bool ScanCursor::NextSlow(Process*& process, Vpn& vpn, bool& wrapped) {
  wrapped = false;
  const auto& processes = machine_->processes();
  if (processes.empty()) {
    return false;
  }
  // At most two sweeps over the process list: one to finish the current round and
  // one to prove there is no mergeable memory.
  const std::size_t max_hops = 2 * processes.size() + 2;
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    if (process_idx_ >= processes.size()) {
      process_idx_ = 0;
      vma_idx_ = 0;
      page_idx_ = 0;
      wrapped = true;
      continue;
    }
    if (processes[process_idx_] == nullptr) {  // destroyed process slot
      ++process_idx_;
      vma_idx_ = 0;
      page_idx_ = 0;
      continue;
    }
    Process& candidate = *processes[process_idx_];
    const auto& areas = candidate.address_space().vmas().areas();
    while (vma_idx_ < areas.size()) {
      const VmArea& vma = areas[vma_idx_];
      if (!vma.mergeable || page_idx_ >= vma.pages) {
        ++vma_idx_;
        page_idx_ = 0;
        continue;
      }
      process = &candidate;
      vpn = vma.start + page_idx_;
      ++page_idx_;
      return true;
    }
    ++process_idx_;
    vma_idx_ = 0;
    page_idx_ = 0;
  }
  return false;
}

}  // namespace vusion
