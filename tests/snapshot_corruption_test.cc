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
#include "src/fusion/wpf.h"
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
  if (kind == EngineKind::kWpf) {
    fusion.wpf_period = 5 * kMillisecond;  // passes, not one per 15 minutes
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

void WriteLe(std::string& buffer, std::size_t pos, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    buffer[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void WriteLeU32(std::string& buffer, std::size_t pos, std::uint32_t v) {
  WriteLe(buffer, pos, v, 4);
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

// Cuts the payload byte at `delta` and re-seals the section's length and
// checksum, so the decoder reads every later field of the section one byte
// early.
std::string CutSealedByte(std::string buffer, const snapshot::SnapshotReader::SectionInfo& s,
                          std::size_t delta) {
  buffer.erase(s.offset + delta, 1);
  WriteLe(buffer, s.offset - 8, s.size - 1, 8);  // the payload length precedes it
  WriteLeU32(buffer, s.offset + s.size - 1,
             snapshot::Crc32(buffer.data() + s.offset, s.size - 1));
  return buffer;
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

// Every engine section opens with the common block (122 bytes with empty
// allocation and slot logs); KSM and VUsion follow it with the scan cursor
// (three U64s) and their stable-tree count.
constexpr std::size_t kEngineCommonBytes = 122;
constexpr std::size_t kStableCountDelta = kEngineCommonBytes + 24;

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

struct EngineImage {
  std::string name;
  const std::string* bytes = nullptr;
};

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    image_ = new std::string(MakeImage());
    vusion_image_ = new std::string(MakeImage(EngineKind::kVUsion));
    wpf_image_ = new std::string(MakeImage(EngineKind::kWpf));
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
    delete vusion_image_;
    vusion_image_ = nullptr;
    delete wpf_image_;
    wpf_image_ = nullptr;
  }
  static const std::string& image() { return *image_; }
  // The same boot under VUsion, whose entropy pool holds frames from the
  // moment the engine is built.
  static const std::string& vusion_image() { return *vusion_image_; }
  // The same boot under WPF, with combined pages from several passes.
  static const std::string& wpf_image() { return *wpf_image_; }
  // Every engine's image, for the sweeps that run over all three decoders.
  static std::vector<EngineImage> engine_images() {
    return {{"KSM", image_}, {"VUsion", vusion_image_}, {"WPF", wpf_image_}};
  }

 private:
  static std::string* image_;
  static std::string* vusion_image_;
  static std::string* wpf_image_;
};

std::string* SnapshotCorruptionTest::image_ = nullptr;
std::string* SnapshotCorruptionTest::vusion_image_ = nullptr;
std::string* SnapshotCorruptionTest::wpf_image_ = nullptr;

TEST_F(SnapshotCorruptionTest, IntactImageRestores) {
  const snapshot::SnapshotInfo info = snapshot::VerifySnapshot(image());
  EXPECT_EQ(info.kind, EngineKind::kKsm);
  EXPECT_EQ(info.sections.front().name, "config");
  EXPECT_EQ(info.sections.back().name, "engine");
  const snapshot::RestoredMachine wpf = snapshot::RestoreSnapshot(wpf_image());
  EXPECT_GT(static_cast<const Wpf&>(*wpf.engine).combined_pages(), 0u);
}

TEST_F(SnapshotCorruptionTest, TruncationAtEverySectionBoundaryFailsClosed) {
  for (const auto& [engine, image] : engine_images()) {
    const snapshot::SnapshotInfo info = snapshot::InspectSnapshot(*image);
    for (const auto& section : info.sections) {
      const std::string where = engine + " '" + section.name + "'";
      // Cut at the payload start: the section's own payload is truncated.
      ExpectRestoreError(image->substr(0, section.offset), section.name,
                         "truncate at start of " + where);
      // Cut mid-payload.
      if (section.size > 1) {
        ExpectRestoreError(image->substr(0, section.offset + section.size / 2), section.name,
                           "truncate inside " + where);
      }
      // Cut just before the section checksum.
      ExpectRestoreError(image->substr(0, section.offset + section.size), section.name,
                         "truncate before checksum of " + where);
    }
    // Cutting after a complete section leaves the next frame (or the header's
    // section count) dangling; exact section varies, but it must fail closed.
    for (const auto& section : info.sections) {
      const std::string cut = image->substr(0, section.offset + section.size + 4);
      if (cut.size() < image->size()) {
        ExpectRestoreError(cut, "", "truncate after " + engine + " '" + section.name + "'");
      }
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
  for (const auto& [engine, image] : engine_images()) {
    for (const auto& section : snapshot::InspectSnapshot(*image).sections) {
      if (section.size == 0) {
        continue;
      }
      ExpectRestoreError(FlipBit(*image, section.offset + section.size / 2, 3), section.name,
                         "payload flip in " + engine + " '" + section.name + "'");
    }
  }
}

// One byte cut from a payload, with the section's length and checksum
// re-sealed, reaches the decoders: every later field of the section shifts.
// Whichever section then fails, or the audit, the half-restored machine is
// discarded without freeing into its allocator. Freeing page-table nodes and
// pool slots into it once aborted debug builds and crashed release ones.
TEST_F(SnapshotCorruptionTest, SealedOneByteCutsFailClosed) {
  constexpr std::size_t kCutsPerSection = 8;
  for (const auto& [engine, image] : engine_images()) {
    for (const auto& section : snapshot::InspectSnapshot(*image).sections) {
      for (std::size_t k = 0; k < kCutsPerSection && k < section.size; ++k) {
        const std::size_t delta = section.size * k / kCutsPerSection;
        ExpectRestoreError(CutSealedByte(*image, section, delta), "",
                           engine + " '" + section.name + "' cut at " + std::to_string(delta));
      }
    }
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
    ASSERT_EQ(ReadLe(buffer, engine.offset + kStableCountDelta, 8), stable_size) << name;
    ExpectRestoreError(PatchSealedLe(buffer, engine, kStableCountDelta, stable_size + 1, 8),
                       "engine", name + " stable count + 1");
  }
}

// Frame-id range checks: a frame id past the machine's frames, re-sealed over
// each decoded frame id, fails closed naming its section. Before the checks,
// the engine and page-table sites crashed `savestate verify` and the buddy one
// restored and ran.
class FrameIdRangeTest : public SnapshotCorruptionTest {
 protected:
  static constexpr std::uint32_t kBadFrame = 0xFFFFFFF0u;

  // Writes kBadFrame over the frame id at `delta` of `section_name`.
  static void ExpectFrameRejected(const std::string& image, const std::string& section_name,
                                  std::size_t delta, const std::string& context) {
    const auto section = FindSection(image, section_name);
    ASSERT_LE(delta + 4, section.size) << context;
    ASSERT_LT(ReadLe(image, section.offset + delta, 4), MakeMachineConfig().frame_count)
        << context << ": not a frame id";
    try {
      snapshot::RestoredMachine restored =
          snapshot::RestoreSnapshot(PatchSealedLe(image, section, delta, kBadFrame, 4));
      ADD_FAILURE() << context << ": out-of-range frame id restored";
    } catch (const snapshot::RestoreError& e) {
      EXPECT_EQ(e.section(), section_name) << context << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("frame id " + std::to_string(kBadFrame)),
                std::string::npos)
          << context << ": " << e.what();
    }
  }

  // Offset in the KSM image's engine payload of the first field after the
  // stable entries (frame, refs, index hash, colour and two child flags).
  static std::size_t AfterKsmStableEntries() {
    const auto engine = FindSection(image(), "engine");
    return kStableCountDelta + 8 + 19 * ReadLe(image(), engine.offset + kStableCountDelta, 8);
  }
  // The same in the VUsion image, whose entries hold a frame, a relocation
  // round, a sharer count and a (pid, vpn) per sharer, a colour and two child
  // flags.
  static std::size_t AfterVUsionStableEntries() {
    const auto engine = FindSection(vusion_image(), "engine");
    std::size_t pos = kStableCountDelta + 8;
    for (std::uint64_t i = ReadLe(vusion_image(), engine.offset + kStableCountDelta, 8); i > 0;
         --i) {
      pos += 4 + 8 + 4 + 12 * ReadLe(vusion_image(), engine.offset + pos + 12, 4) + 3;
    }
    return pos;
  }
};

TEST_F(FrameIdRangeTest, KsmStableEntryFrame) {
  ExpectFrameRejected(image(), "engine", kStableCountDelta + 8, "KSM stable entry");
}

TEST_F(FrameIdRangeTest, KsmUnstableItemFrame) {
  const auto engine = FindSection(image(), "engine");
  const std::size_t rmap = AfterKsmStableEntries();
  // The rmap's (key, entry index) pairs come first.
  const std::size_t pos = rmap + 8 + 12 * ReadLe(image(), engine.offset + rmap, 8);
  ASSERT_GT(ReadLe(image(), engine.offset + pos, 8), 0u) << "no unstable items";
  ExpectFrameRejected(image(), "engine", pos + 8, "KSM unstable item");
}

TEST_F(FrameIdRangeTest, VUsionStableEntryFrame) {
  ExpectFrameRejected(vusion_image(), "engine", kStableCountDelta + 8, "VUsion stable entry");
}

TEST_F(FrameIdRangeTest, VUsionPoolSlotFrame) {
  const auto engine = FindSection(vusion_image(), "engine");
  const std::size_t pool = AfterVUsionStableEntries();
  ASSERT_GT(ReadLe(vusion_image(), engine.offset + pool, 8), 0u) << "empty pool";
  ExpectFrameRejected(vusion_image(), "engine", pool + 8, "VUsion pool slot");
}

TEST_F(FrameIdRangeTest, VUsionDeferredFrame) {
  const auto engine = FindSection(vusion_image(), "engine");
  const std::size_t pool = AfterVUsionStableEntries();
  // The pool's slots, then its RNG (four U64 words, F64 spare, Bool), last
  // slot fraction (F64) and four U64 counters.
  const std::size_t pos =
      pool + 8 + 4 * ReadLe(vusion_image(), engine.offset + pool, 8) + 32 + 8 + 1 + 8 + 32;
  ASSERT_GT(ReadLe(vusion_image(), engine.offset + pos, 8), 0u) << "empty deferred queue";
  ExpectFrameRejected(vusion_image(), "engine", pos + 8, "VUsion deferred frame");
}

TEST_F(FrameIdRangeTest, WpfCombinedEntryFrame) {
  // WPF follows the common block with its linear allocator's cursor (a U32).
  constexpr std::size_t kCountDelta = kEngineCommonBytes + 4;
  const auto engine = FindSection(wpf_image(), "engine");
  ASSERT_GT(ReadLe(wpf_image(), engine.offset + kCountDelta, 8), 0u) << "no combined entries";
  ExpectFrameRejected(wpf_image(), "engine", kCountDelta + 8, "WPF combined entry");
}

TEST_F(FrameIdRangeTest, PageTableNodeFrame) {
  // The first process: its next region (U64) and VMAs (U64 count, 19 bytes
  // each), then its page table's node count (U64) and root frame.
  const auto procs = FindSection(image(), "procs");
  const std::size_t root = 16 + 19 * ReadLe(image(), procs.offset + 8, 8) + 8;
  ExpectFrameRejected(image(), "procs", root, "page-table root");
}

TEST_F(FrameIdRangeTest, BuddyFreeListFrame) {
  // The order count (U64), then order 0's length (U64) and frames.
  const auto buddy = FindSection(image(), "buddy");
  ASSERT_GT(ReadLe(image(), buddy.offset + 8, 8), 0u) << "empty order-0 free list";
  ExpectFrameRejected(image(), "buddy", 16, "order-0 free list");
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
