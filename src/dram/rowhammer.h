// Rowhammer engine: a seeded per-row vulnerability template plus the flip rule.
//
// When both neighbours (r-1, r+1) of a victim row r in the same bank have been
// activated at least hammer_threshold times within one refresh epoch (double-sided
// hammering), the victim row's templated cells flip 1 -> 0 in physical memory.
// The template is a deterministic function of (bank, row, seed), so "memory
// templating" - the attacker profiling which of her frames contain exploitable
// flips - is reproducible, while different seeds model different DIMMs.

#ifndef VUSION_SRC_DRAM_ROWHAMMER_H_
#define VUSION_SRC_DRAM_ROWHAMMER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/dram/dram_mapping.h"
#include "src/dram/row_buffer.h"
#include "src/phys/physical_memory.h"

namespace vusion {

// One flippable cell, addressed relative to its row.
struct VulnerableCell {
  std::size_t byte_in_row = 0;
  std::uint8_t bit = 0;
};

struct FlipEvent {
  FrameId frame = kInvalidFrame;
  std::size_t byte_in_page = 0;
  std::uint8_t bit = 0;
  bool applied = false;  // false if the stored bit was already 0
};

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

class RowhammerEngine {
 public:
  RowhammerEngine(const DramMapping& mapping, RowBuffer& row_buffer, PhysicalMemory& memory);

  // Savestates: the flipped-this-epoch set (sorted), epoch stamp, flip log.
  void SaveState(snapshot::SnapshotWriter& w) const;
  void RestoreState(snapshot::SnapshotReader& r);

  // The deterministic vulnerability template for a row (may be empty).
  [[nodiscard]] std::vector<VulnerableCell> TemplateFor(std::size_t bank, std::uint64_t row) const;

  // Called by the memory system after every DRAM activation; applies flips when the
  // double-sided condition is met. Returns the flips applied by this activation.
  std::vector<FlipEvent> OnActivation(const RowBuffer::AccessResult& access);

  [[nodiscard]] const std::vector<FlipEvent>& flips() const { return all_flips_; }
  // Lifetime flip count (telemetry harvests this).
  [[nodiscard]] std::uint64_t total_flips() const { return all_flips_.size(); }

 private:
  std::vector<FlipEvent> HammerVictim(std::size_t bank, std::uint64_t victim_row);

  const DramMapping* mapping_;
  RowBuffer* row_buffer_;
  PhysicalMemory* memory_;
  // Victim rows already flipped this epoch (a cell only discharges once per epoch).
  std::unordered_set<std::uint64_t> flipped_this_epoch_;
  std::uint64_t epoch_seen_ = 0;
  std::vector<FlipEvent> all_flips_;
};

}  // namespace vusion

#endif  // VUSION_SRC_DRAM_ROWHAMMER_H_
