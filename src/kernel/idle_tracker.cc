#include "src/kernel/idle_tracker.h"

namespace vusion {

bool IdleTracker::TestAndClearAccessed(AddressSpace& as, Vpn vpn) {
  Pte* pte = as.GetPte(vpn);
  if (pte == nullptr || pte->flags == 0) {
    return false;
  }
  const bool accessed = pte->accessed();
  if (accessed) {
    as.UpdateFlags(vpn, 0, kPteAccessed);
  }
  return accessed;
}

}  // namespace vusion
