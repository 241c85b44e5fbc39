// Idle page tracking, modeled on the Linux facility VUsion's working-set estimation
// uses (Documentation/vm/idle_page_tracking.txt): harvest-and-clear PTE accessed
// bits. Clearing invalidates the TLB entry so the hardware re-sets the bit on the
// next access.

#ifndef VUSION_SRC_KERNEL_IDLE_TRACKER_H_
#define VUSION_SRC_KERNEL_IDLE_TRACKER_H_

#include "src/mmu/address_space.h"

namespace vusion {

class IdleTracker {
 public:
  // Returns whether the page was accessed since the last clear, then clears the
  // accessed bit. Works on 4 KB PTEs and huge PMD entries alike.
  static bool TestAndClearAccessed(AddressSpace& as, Vpn vpn);
};

}  // namespace vusion

#endif  // VUSION_SRC_KERNEL_IDLE_TRACKER_H_
