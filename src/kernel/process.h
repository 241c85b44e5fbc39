// A process (or, in the cloud scenarios, a whole guest VM whose physical memory the
// host sees as one address space). Provides region layout, untimed setup-population
// of memory images, and the timed access API that workloads and attacks use.

#ifndef VUSION_SRC_KERNEL_PROCESS_H_
#define VUSION_SRC_KERNEL_PROCESS_H_

#include <cstdint>
#include <span>

#include "src/kernel/machine.h"
#include "src/mmu/address_space.h"

namespace vusion {

class Process {
 public:
  Process(Machine& machine, std::uint32_t id);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] AddressSpace& address_space() { return address_space_; }
  [[nodiscard]] const AddressSpace& address_space() const { return address_space_; }
  [[nodiscard]] Machine& machine() { return *machine_; }

  // Reserves a virtual region (512-page aligned) and records its VMA. Pages are not
  // mapped; populate with the Setup* calls or touch them to demand-fault.
  VirtAddr AllocateRegion(std::uint64_t pages, PageType type, bool mergeable,
                          bool thp_eligible);

  // fork support: adopts the parent's VMA layout so future AllocateRegion calls in
  // the child do not overlap inherited regions.
  void InheritLayout(const Process& parent);

  // Registers [vaddr, vaddr + pages*4K) with the fusion system (madvise MERGEABLE).
  void Madvise(VirtAddr vaddr, std::uint64_t pages);
  // Withdraws the range from the fusion system (madvise UNMERGEABLE); any merged
  // pages in it are broken back out into private copies.
  void MadviseUnmergeable(VirtAddr vaddr, std::uint64_t pages);

  // --- Untimed setup population (the "VM boots with this image" path) ---

  // Maps vpn to a fresh frame filled with the pattern expansion of `seed`.
  void SetupMapPattern(Vpn vpn, std::uint64_t seed);
  // Maps vpn to a fresh zero-filled frame.
  void SetupMapZero(Vpn vpn);
  // Maps a 512-page-aligned huge page backed by a fresh contiguous block; subpage i
  // gets pattern seed seeds_base + i. Returns false if no contiguous block exists.
  bool SetupMapHuge(Vpn base_vpn, std::uint64_t seeds_base);
  // Same, with one content seed per subpage (seed 0 = zero-filled page).
  bool SetupMapHugeSeeds(Vpn base_vpn, std::span<const std::uint64_t> seeds);
  // Unmaps and frees (fusion-aware).
  void SetupUnmap(Vpn vpn);

  // --- Timed accesses (drive the clock, the cache, DRAM, and page faults) ---

  // Inline: the workload loops issue tens of millions of these.
  std::uint64_t Read64(VirtAddr vaddr) {
    return machine_->Access(*this, vaddr, AccessType::kRead, 0).value;
  }
  void Write64(VirtAddr vaddr, std::uint64_t value) {
    machine_->Access(*this, vaddr, AccessType::kWrite, value);
  }
  // Same, returning the access latency (what attacker rdtsc loops measure).
  SimTime TimedRead(VirtAddr vaddr);
  SimTime TimedWrite(VirtAddr vaddr, std::uint64_t value);
  void Prefetch(VirtAddr vaddr);
  void FlushCacheLine(VirtAddr vaddr);

  // Test/attack helper: current backing frame of vpn (huge-aware), or kInvalidFrame.
  [[nodiscard]] FrameId TranslateFrame(Vpn vpn) const;

  // Savestate accessors: the region-layout cursor is deterministic state (it
  // decides where the next AllocateRegion lands).
  [[nodiscard]] Vpn next_region_vpn() const { return next_region_vpn_; }
  void set_next_region_vpn(Vpn vpn) { next_region_vpn_ = vpn; }

 private:
  Machine* machine_;
  std::uint32_t id_;
  AddressSpace address_space_;
  Vpn next_region_vpn_;
};

// vaddr/vpn helpers.
constexpr std::uint64_t kPageShift = 12;
constexpr VirtAddr VpnToVaddr(Vpn vpn) { return vpn << kPageShift; }
constexpr Vpn VaddrToVpn(VirtAddr vaddr) { return vaddr >> kPageShift; }

}  // namespace vusion

#endif  // VUSION_SRC_KERNEL_PROCESS_H_
