#include "src/dram/rowhammer.h"

namespace vusion {

namespace {

std::uint64_t HashRow(std::uint64_t seed, std::size_t bank, std::uint64_t row,
                      std::uint64_t salt) {
  std::uint64_t x = seed ^ (row * 0x9e3779b97f4a7c15ULL) ^ (bank * 0xc2b2ae3d27d4eb4fULL) ^
                    (salt * 0x165667b19e3779f9ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RowhammerEngine::RowhammerEngine(const DramMapping& mapping, RowBuffer& row_buffer,
                                 PhysicalMemory& memory)
    : mapping_(&mapping), row_buffer_(&row_buffer), memory_(&memory) {}

std::vector<VulnerableCell> RowhammerEngine::TemplateFor(std::size_t bank,
                                                         std::uint64_t row) const {
  const DramConfig& cfg = mapping_->config();
  std::vector<VulnerableCell> cells;
  const std::uint64_t h = HashRow(cfg.template_seed, bank, row, 0);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= cfg.vulnerable_row_fraction) {
    return cells;
  }
  const std::uint32_t count = 1 + static_cast<std::uint32_t>(HashRow(cfg.template_seed, bank, row,
                                                                     1) %
                                                             cfg.max_flips_per_row);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t pos = HashRow(cfg.template_seed, bank, row, 2 + i);
    VulnerableCell cell;
    cell.byte_in_row = static_cast<std::size_t>(pos % cfg.row_bytes);
    cell.bit = static_cast<std::uint8_t>((pos >> 13) % 8);
    cells.push_back(cell);
  }
  return cells;
}

std::vector<FlipEvent> RowhammerEngine::OnActivation(const RowBuffer::AccessResult& access) {
  std::vector<FlipEvent> flips;
  if (!access.activated) {
    return flips;
  }
  const std::uint64_t epoch = row_buffer_->current_epoch();
  if (epoch != epoch_seen_) {
    epoch_seen_ = epoch;
    flipped_this_epoch_.clear();
  }
  if (access.activation_count < mapping_->config().hammer_threshold) {
    return flips;
  }
  // This row is hot; each neighbouring row is a victim candidate if its *other*
  // neighbour is also hot (double-sided), or - much later - from this row's
  // disturbance alone (single-sided, as in Drammer-style attacks).
  const std::size_t bank = access.location.bank;
  const std::uint64_t row = access.location.row;
  const DramConfig& cfg = mapping_->config();
  const bool single_sided =
      cfg.single_sided_factor > 0 &&
      access.activation_count >= cfg.hammer_threshold * cfg.single_sided_factor;
  for (int delta = -1; delta <= 1; delta += 2) {
    if (delta < 0 && row < 2) {
      continue;
    }
    const std::uint64_t victim = row + static_cast<std::uint64_t>(delta);
    const std::uint64_t other = victim + static_cast<std::uint64_t>(delta);
    if (!single_sided && row_buffer_->activations(bank, other) < cfg.hammer_threshold) {
      continue;
    }
    const std::uint64_t key = (victim << 5) | bank;
    if (flipped_this_epoch_.contains(key)) {
      continue;
    }
    flipped_this_epoch_.insert(key);
    auto victim_flips = HammerVictim(bank, victim);
    flips.insert(flips.end(), victim_flips.begin(), victim_flips.end());
  }
  return flips;
}

std::vector<FlipEvent> RowhammerEngine::HammerVictim(std::size_t bank, std::uint64_t victim_row) {
  std::vector<FlipEvent> flips;
  const PhysAddr row_base = mapping_->RowBase(bank, victim_row);
  for (const VulnerableCell& cell : TemplateFor(bank, victim_row)) {
    const PhysAddr paddr = row_base + cell.byte_in_row;
    const auto frame = static_cast<FrameId>(paddr / kPageSize);
    if (frame >= memory_->frame_count() || !memory_->allocated(frame)) {
      continue;
    }
    FlipEvent event;
    event.frame = frame;
    event.byte_in_page = static_cast<std::size_t>(paddr % kPageSize);
    event.bit = cell.bit;
    // Cells discharge: only 1 -> 0 transitions are observable as flips.
    const std::uint8_t current = memory_->ReadByte(frame, event.byte_in_page);
    if ((current & (1U << cell.bit)) != 0) {
      memory_->FlipBit(frame, event.byte_in_page * 8 + cell.bit);
      event.applied = true;
    }
    flips.push_back(event);
    all_flips_.push_back(event);
  }
  return flips;
}

}  // namespace vusion

#include "src/snapshot/io.h"

#include <algorithm>
#include <vector>

namespace vusion {

void RowhammerEngine::SaveState(snapshot::SnapshotWriter& w) const {
  std::vector<std::uint64_t> flipped(flipped_this_epoch_.begin(), flipped_this_epoch_.end());
  std::sort(flipped.begin(), flipped.end());
  w.U64(flipped.size());
  for (const std::uint64_t key : flipped) {
    w.U64(key);
  }
  w.U64(epoch_seen_);
  w.U64(all_flips_.size());
  for (const FlipEvent& flip : all_flips_) {
    w.U32(flip.frame);
    w.U64(flip.byte_in_page);
    w.U8(flip.bit);
    w.Bool(flip.applied);
  }
}

void RowhammerEngine::RestoreState(snapshot::SnapshotReader& r) {
  flipped_this_epoch_.clear();
  const std::uint64_t flipped = r.Count(8);
  flipped_this_epoch_.reserve(flipped);
  for (std::uint64_t i = 0; i < flipped; ++i) {
    flipped_this_epoch_.insert(r.U64());
  }
  epoch_seen_ = r.U64();
  all_flips_.clear();
  const std::uint64_t flips = r.Count(14);
  all_flips_.reserve(flips);
  for (std::uint64_t i = 0; i < flips; ++i) {
    FlipEvent flip;
    flip.frame = r.U32();
    flip.byte_in_page = r.U64();
    flip.bit = r.U8();
    flip.applied = r.Bool();
    all_flips_.push_back(flip);
  }
}

}  // namespace vusion
