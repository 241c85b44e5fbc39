// Shared helper for serializing Rng streams (machine RNG, latency noise RNG,
// fault-injector RNG, randomized-pool RNG, campaign driver RNG) through the
// Rng::state() accessor pair.

#ifndef VUSION_SRC_SNAPSHOT_RNG_CODEC_H_
#define VUSION_SRC_SNAPSHOT_RNG_CODEC_H_

#include "src/sim/rng.h"
#include "src/snapshot/io.h"

namespace vusion::snapshot {

inline void WriteRngState(SnapshotWriter& w, const Rng::State& s) {
  for (const std::uint64_t word : s.s) {
    w.U64(word);
  }
  w.F64(s.spare_gaussian);
  w.Bool(s.has_spare_gaussian);
}

inline Rng::State ReadRngState(SnapshotReader& r) {
  Rng::State s;
  for (std::uint64_t& word : s.s) {
    word = r.U64();
  }
  s.spare_gaussian = r.F64();
  s.has_spare_gaussian = r.Bool();
  return s;
}

inline void WriteRng(SnapshotWriter& w, const Rng& rng) { WriteRngState(w, rng.state()); }

inline void ReadRng(SnapshotReader& r, Rng& rng) { rng.RestoreState(ReadRngState(r)); }

}  // namespace vusion::snapshot

#endif  // VUSION_SRC_SNAPSHOT_RNG_CODEC_H_
