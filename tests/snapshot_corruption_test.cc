// Corrupted-snapshot fuzzing (DESIGN.md §13): every way a snapshot buffer can
// be damaged — truncation at and inside every section, single-bit flips in the
// header and in each payload, future- and old-version headers, dropped sections,
// semantically invalid fields behind a valid checksum — must fail closed with
// a structured RestoreError naming the offending section. No crash, no silent
// partial restore, and the restore target stays untouched.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fusion/engine_factory.h"
#include "src/fusion/ksm.h"
#include "src/fusion/vusion_engine.h"
#include "src/host/thread_pool.h"
#include "src/kernel/process.h"
#include "src/sim/latency_model.h"
#include "src/snapshot/config_codec.h"
#include "src/snapshot/machine_snapshot.h"

namespace vusion {
namespace {

MachineConfig MakeMachineConfig() {
  MachineConfig config;
  config.frame_count = 1u << 13;
  config.seed = 7;
  return config;
}

// A small but non-trivial image: KSM engine (unless `kind` names another),
// three processes with duplicate pages, enough idle that merges, RNG draws,
// and stats are all non-zero.
std::string MakeImage(EngineKind kind = EngineKind::kKsm) {
  Machine machine(MakeMachineConfig());
  FusionConfig fusion;
  fusion.wake_period = 1 * kMillisecond;
  fusion.pages_per_wake = 128;
  if (kind == EngineKind::kVUsion) {
    fusion.pool_frames = 1024;  // the default pool outsizes this machine
  }
  std::unique_ptr<FusionEngine> engine = MakeEngineExact(kind, machine, fusion);
  engine->Install();
  for (int p = 0; p < 3; ++p) {
    Process& proc = machine.CreateProcess();
    const VirtAddr base = proc.AllocateRegion(32, PageType::kAnonymous, true, false);
    for (std::uint64_t i = 0; i < 32; ++i) {
      proc.SetupMapPattern(VaddrToVpn(base) + i, 0x5000 + (i % 8));
    }
    proc.Write64(base + 128, 0xDEADBEEF + p);
  }
  machine.Idle(30 * kMillisecond);
  const std::string image = snapshot::SaveSnapshot(machine, engine.get(), kind);
  engine->Uninstall();
  return image;
}

std::string FlipBit(std::string buffer, std::size_t byte, int bit) {
  buffer[byte] = static_cast<char>(static_cast<unsigned char>(buffer[byte]) ^ (1u << bit));
  return buffer;
}

void WriteLeU32(std::string& buffer, std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Patches one payload byte and re-seals the section checksum, so the damage
// reaches the semantic decoder instead of being caught by the CRC.
std::string PatchSealedByte(std::string buffer, const snapshot::SnapshotReader::SectionInfo& s,
                            std::size_t delta, char value) {
  buffer[s.offset + delta] = value;
  WriteLeU32(buffer, s.offset + s.size,
             snapshot::Crc32(buffer.data() + s.offset, s.size));
  return buffer;
}

// Patches `bytes` little-endian bytes of `value` at `delta`, re-sealing each.
std::string PatchSealedLe(std::string buffer, const snapshot::SnapshotReader::SectionInfo& s,
                          std::size_t delta, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    buffer = PatchSealedByte(buffer, s, delta + i, static_cast<char>((value >> (8 * i)) & 0xFF));
  }
  return buffer;
}

std::uint64_t ReadLe(const std::string& buffer, std::size_t pos, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(buffer[pos + i])} << (8 * i);
  }
  return v;
}

snapshot::SnapshotReader::SectionInfo FindSection(const std::string& buffer,
                                                  const std::string& name) {
  for (const auto& section : snapshot::InspectSnapshot(buffer).sections) {
    if (section.name == name) {
      return section;
    }
  }
  ADD_FAILURE() << "no section " << name;
  return {};
}

// Re-seals the header CRC after editing the first 16 header bytes.
std::string SealHeader(std::string buffer) {
  WriteLeU32(buffer, 16, snapshot::Crc32(buffer.data(), 16));
  return buffer;
}

// Bytes WriteFusionConfig emits for a default config, measured by encoding one,
// so a config field change cannot silently aim an offset at another field.
std::size_t FusionConfigRecordBytes() {
  snapshot::SnapshotWriter w;
  w.BeginSection("fusion");
  snapshot::WriteFusionConfig(w, FusionConfig{});
  w.EndSection();
  const std::string bytes = w.Finish();
  return snapshot::SnapshotReader(bytes).sections().front().size;
}

void ExpectRestoreError(const std::string& buffer, const std::string& want_section,
                        const std::string& context) {
  try {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(buffer);
    ADD_FAILURE() << context << ": corrupted snapshot restored without error";
  } catch (const snapshot::RestoreError& e) {
    EXPECT_FALSE(e.section().empty()) << context;
    if (!want_section.empty()) {
      EXPECT_EQ(e.section(), want_section) << context << ": " << e.what();
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": wrong exception type: " << e.what();
  }
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    image_ = new std::string(MakeImage());
    vusion_image_ = new std::string(MakeImage(EngineKind::kVUsion));
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
    delete vusion_image_;
    vusion_image_ = nullptr;
  }
  static const std::string& image() { return *image_; }
  // The same boot under VUsion, whose entropy pool holds frames from the
  // moment the engine is built.
  static const std::string& vusion_image() { return *vusion_image_; }

 private:
  static std::string* image_;
  static std::string* vusion_image_;
};

std::string* SnapshotCorruptionTest::image_ = nullptr;
std::string* SnapshotCorruptionTest::vusion_image_ = nullptr;

TEST_F(SnapshotCorruptionTest, IntactImageRestores) {
  const snapshot::SnapshotInfo info = snapshot::VerifySnapshot(image());
  EXPECT_EQ(info.kind, EngineKind::kKsm);
  EXPECT_EQ(info.sections.front().name, "config");
  EXPECT_EQ(info.sections.back().name, "engine");
}

TEST_F(SnapshotCorruptionTest, TruncationAtEverySectionBoundaryFailsClosed) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  for (const auto& section : info.sections) {
    // Cut at the payload start: the section's own payload is truncated.
    ExpectRestoreError(image().substr(0, section.offset), section.name,
                       "truncate at start of '" + section.name + "'");
    // Cut mid-payload.
    if (section.size > 1) {
      ExpectRestoreError(image().substr(0, section.offset + section.size / 2), section.name,
                         "truncate inside '" + section.name + "'");
    }
    // Cut just before the section checksum.
    ExpectRestoreError(image().substr(0, section.offset + section.size), section.name,
                       "truncate before checksum of '" + section.name + "'");
  }
  // Cutting after a complete section leaves the next frame (or the header's
  // section count) dangling; exact section varies, but it must fail closed.
  for (const auto& section : info.sections) {
    const std::string cut = image().substr(0, section.offset + section.size + 4);
    if (cut.size() < image().size()) {
      ExpectRestoreError(cut, "", "truncate after '" + section.name + "'");
    }
  }
}

TEST_F(SnapshotCorruptionTest, EveryHeaderBitFlipFailsClosed) {
  for (std::size_t byte = 0; byte < snapshot::kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      ExpectRestoreError(FlipBit(image(), byte, bit), "header",
                         "header bit flip " + std::to_string(byte) + ":" + std::to_string(bit));
    }
  }
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipsNameTheDamagedSection) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  for (const auto& section : info.sections) {
    if (section.size == 0) {
      continue;
    }
    ExpectRestoreError(FlipBit(image(), section.offset + section.size / 2, 3), section.name,
                       "payload flip in '" + section.name + "'");
  }
}

// Any version but kVersion fails closed, naming the version it carries: a
// future one, or the previous format (v6), for which there is no reader.
TEST_F(SnapshotCorruptionTest, FutureVersionRejected) {
  for (const std::uint32_t version : {snapshot::kVersion + 1, snapshot::kVersion - 1}) {
    std::string buffer = image();
    WriteLeU32(buffer, 8, version);  // version field follows the magic
    buffer = SealHeader(buffer);
    try {
      snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(buffer);
      ADD_FAILURE() << "version " << version << " snapshot restored";
    } catch (const snapshot::RestoreError& e) {
      EXPECT_EQ(e.section(), "header");
      EXPECT_NE(std::string(e.what()).find("unsupported snapshot version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(SnapshotCorruptionTest, BadMagicRejected) {
  std::string buffer = FlipBit(image(), 0, 0);
  buffer = SealHeader(buffer);  // valid CRC, wrong magic
  ExpectRestoreError(buffer, "header", "bad magic behind valid CRC");
}

TEST_F(SnapshotCorruptionTest, UnknownEngineKindBehindValidChecksumRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& config = info.sections.front();
  ASSERT_EQ(config.name, "config");
  // The engine-kind byte sits just before the FusionConfig record at the end
  // of the "config" payload.
  const std::size_t kind_delta = config.size - FusionConfigRecordBytes() - 1;
  const std::string buffer =
      PatchSealedByte(image(), config, kind_delta, static_cast<char>(0xC8));
  ExpectRestoreError(buffer, "config", "unknown engine kind behind valid CRC");
}

TEST_F(SnapshotCorruptionTest, BadCacheGeometryBehindValidChecksumRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& config = info.sections.front();
  ASSERT_EQ(config.name, "config");
  // The LLC's sets field: after frame_count (U32), line_size and ways (U64s).
  constexpr std::size_t kSetsDelta = 20;
  for (const std::uint64_t sets : {std::uint64_t{0}, std::uint64_t{8191}}) {
    ExpectRestoreError(PatchSealedLe(image(), config, kSetsDelta, sets, 8), "config",
                       "LLC sets = " + std::to_string(sets));
  }
}

TEST_F(SnapshotCorruptionTest, FrameCountPastCacheKeysBehindValidChecksumRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& config = info.sections.front();
  ASSERT_EQ(config.name, "config");
  // One LLC set of 64 B lines keys 2^26 - 1 frames (CacheConfig::max_frames):
  // the decoder must refuse 2^26 before a Machine sizes memory by it.
  constexpr std::size_t kFrameCountDelta = 0;
  constexpr std::size_t kSetsDelta = 20;
  std::string buffer = PatchSealedLe(image(), config, kSetsDelta, 1, 8);
  buffer = PatchSealedLe(buffer, config, kFrameCountDelta, std::uint64_t{1} << 26, 4);
  try {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(buffer);
    ADD_FAILURE() << "frame count past the LLC's keys restored";
  } catch (const snapshot::RestoreError& e) {
    EXPECT_EQ(e.section(), "config");
    EXPECT_NE(std::string(e.what()).find("key"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotCorruptionTest, HugeScanThreadsBehindValidChecksumRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& config = info.sections.front();
  ASSERT_EQ(config.name, "config");
  // scan_threads follows wake_period and pages_per_wake (two U64s) in the
  // FusionConfig record at the end of the "config" payload. The decoder must
  // refuse a count past ThreadPool::kMaxThreads before any engine is built, so
  // the restore starts no thread.
  const std::size_t threads_delta = config.size - FusionConfigRecordBytes() + 16;
  ASSERT_EQ(ReadLe(image(), config.offset + threads_delta, 8), 1u);
  for (const std::uint64_t threads :
       {std::uint64_t{1} << 40, std::uint64_t{host::ThreadPool::kMaxThreads + 1}}) {
    ExpectRestoreError(PatchSealedLe(image(), config, threads_delta, threads, 8), "config",
                       "scan_threads = " + std::to_string(threads));
  }
}

TEST_F(SnapshotCorruptionTest, DamagedNoiseBatchBehindValidChecksumRejected) {
  const auto latency = FindSection(image(), "latency");
  // The section ends with the batch: 64 gaussians, 64 factors, the sigma the
  // factors were computed with (F64) and the cursor (U32).
  const std::size_t cursor = latency.size - 4;
  const std::size_t factor0 = cursor - 8 - 8 * LatencyModel::kNoiseBatch;
  const std::size_t gauss0 = factor0 - 8 * LatencyModel::kNoiseBatch;
  // A mid-batch image: the saved batch is consistent whether or not it was
  // spent, so moving the cursor into it still restores and runs.
  const std::string mid = PatchSealedLe(image(), latency, cursor, 5, 4);
  {
    snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(mid);
    restored.machine->Idle(5 * kMillisecond);
  }
  const std::uint64_t factor40 = ReadLe(mid, latency.offset + factor0 + 8 * 40, 8);
  // A NaN factor once restored cleanly and advanced the clock by about 2^63.
  ExpectRestoreError(PatchSealedLe(mid, latency, factor0 + 8 * 40, 0x7ff8000000000000ULL, 8),
                     "latency", "NaN noise factor");
  ExpectRestoreError(PatchSealedLe(mid, latency, factor0 + 8 * 40, factor40 + 1, 8), "latency",
                     "noise factor one ulp off");
  ExpectRestoreError(PatchSealedLe(mid, latency, gauss0 + 8 * 3, 0x7ff0000000000000ULL, 8),
                     "latency", "infinite noise gaussian");
  ExpectRestoreError(PatchSealedLe(mid, latency, cursor, LatencyModel::kNoiseBatch + 1, 4),
                     "latency", "noise cursor past the batch");
}

// Also run on the VUsion image: the cache section is restored after the
// buddy allocator, and tearing down that failed restore once freed the
// engine's construction-time pool frames into the restored allocator (an
// assertion failure in debug builds).
TEST_F(SnapshotCorruptionTest, LlcTagPastPhysicalMemoryBehindValidChecksumRejected) {
  for (const std::string* buffer : {&image(), &vusion_image()}) {
    const auto cache = FindSection(*buffer, "cache");
    // Bool committed, U64 line count, then (U64 index, U64 tag, U64 stamp)
    // per line; the LLC comes first.
    ASSERT_EQ(ReadLe(*buffer, cache.offset, 1), 1u);
    ASSERT_GT(ReadLe(*buffer, cache.offset + 1, 8), 0u);
    constexpr std::size_t kTagDelta = 1 + 8 + 8;
    const std::uint64_t tag = ReadLe(*buffer, cache.offset + kTagDelta, 8);
    // Both stay in the tag's set (a multiple of the 8192 sets apart); the
    // first names a frame 2^13 past its own, at or past the machine's 2^13
    // frames, and the second once resized the per-frame counters to 2^56
    // entries.
    const std::uint64_t lines_of_memory =
        std::uint64_t{MakeMachineConfig().frame_count} * 64;
    for (const std::uint64_t bad : {tag + lines_of_memory, tag + (std::uint64_t{1} << 62)}) {
      ExpectRestoreError(PatchSealedLe(*buffer, cache, kTagDelta, bad, 8), "cache",
                         "LLC tag " + std::to_string(bad));
    }
  }
}

// A stable tree's node count must match the nodes its preorder shape flags
// describe. With the count one too high, KSM and VUsion images once restored
// and passed the audit.
TEST_F(SnapshotCorruptionTest, StableTreeCountBehindValidChecksumRejected) {
  for (const EngineKind kind : {EngineKind::kKsm, EngineKind::kVUsion}) {
    const std::string name = EngineKindName(kind);
    const std::string& buffer = kind == EngineKind::kKsm ? image() : vusion_image();
    std::size_t stable_size = 0;
    {
      const snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(buffer);
      stable_size = kind == EngineKind::kKsm
                        ? static_cast<const Ksm&>(*restored.engine).stable_size()
                        : static_cast<const VUsionEngine&>(*restored.engine).stable_size();
    }
    ASSERT_GT(stable_size, 0u) << name;
    const auto engine = FindSection(buffer, "engine");
    // The count follows the common block (122 bytes with empty allocation and
    // slot logs) and the scan cursor (three U64s).
    constexpr std::size_t kCountDelta = 122 + 24;
    ASSERT_EQ(ReadLe(buffer, engine.offset + kCountDelta, 8), stable_size) << name;
    ExpectRestoreError(PatchSealedLe(buffer, engine, kCountDelta, stable_size + 1, 8), "engine",
                       name + " stable count + 1");
  }
}

TEST_F(SnapshotCorruptionTest, DroppedTrailingSectionRejected) {
  const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(image());
  const auto& last = info.sections.back();
  const auto& prev = info.sections[info.sections.size() - 2];
  // Frame start of the last section = end of the previous section's CRC.
  (void)last;
  std::string buffer = image().substr(0, prev.offset + prev.size + 4);
  WriteLeU32(buffer, 12, static_cast<std::uint32_t>(info.sections.size() - 1));
  buffer = SealHeader(buffer);
  ExpectRestoreError(buffer, "config", "dropped engine section");
}

TEST_F(SnapshotCorruptionTest, EmptyAndGarbageBuffersRejected) {
  ExpectRestoreError("", "header", "empty buffer");
  ExpectRestoreError("short", "header", "short buffer");
  std::string garbage(4096, '\0');
  Rng rng(3);
  for (char& c : garbage) {
    c = static_cast<char>(rng.Next() & 0xFF);
  }
  ExpectRestoreError(garbage, "header", "garbage buffer");
}

TEST_F(SnapshotCorruptionTest, RestoreOntoUsedMachineRefused) {
  snapshot::SnapshotReader r(image());
  r.OpenSection("config");
  std::vector<char> skip(r.sections().front().size);
  r.Bytes(skip.data(), skip.size());
  r.EndSection();

  Machine machine(MakeMachineConfig());
  machine.CreateProcess();
  try {
    machine.Restore(r);
    ADD_FAILURE() << "restore onto a machine with processes succeeded";
  } catch (const snapshot::RestoreError& e) {
    EXPECT_EQ(e.section(), "machine");
    EXPECT_NE(std::string(e.what()).find("already has processes"), std::string::npos);
  }
  // The precondition check fired before any mutation: the machine still works.
  Process& proc = *machine.processes().front();
  const VirtAddr base = proc.AllocateRegion(1, PageType::kAnonymous, true, false);
  proc.Write64(base, 42);
  EXPECT_EQ(proc.Read64(base), 42u);
}

TEST_F(SnapshotCorruptionTest, IntactImageStillRestoresAfterAllFailures) {
  snapshot::RestoredMachine restored = snapshot::RestoreSnapshot(image());
  ASSERT_NE(restored.machine, nullptr);
  ASSERT_NE(restored.engine, nullptr);
  EXPECT_EQ(restored.kind, EngineKind::kKsm);
  // And the restored pair is live: keep running on it.
  restored.machine->Idle(5 * kMillisecond);
}

}  // namespace
}  // namespace vusion
