// Versioned, CRC-guarded binary savestate codec (DESIGN.md §13).
//
// A snapshot is a 20-byte header followed by a flat sequence of named sections:
//
//   header:  magic u64 | version u32 | section_count u32 | crc32(header[0..16))
//   section: name_len u16 | name bytes | payload_len u64 | payload | crc32(payload)
//
// Everything is little-endian. The reader validates the header and every
// section frame (bounds + checksum) up front, before the caller touches any
// target state, so a truncated, bit-flipped, or version-mismatched snapshot
// fails closed with a structured RestoreError naming the offending section —
// never a crash or a half-restored Machine.
//
// Header-only so every subsystem .cc can serialize itself without a new link
// dependency; the orchestration lives in src/snapshot/machine_snapshot.cc.

#ifndef VUSION_SRC_SNAPSHOT_IO_H_
#define VUSION_SRC_SNAPSHOT_IO_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vusion::snapshot {

inline constexpr std::uint64_t kMagic = 0x53535653'4e4f4953ull;  // "SIONVSSS"
// Version history; every older image fails closed, naming its version:
//   v2: FusionConfig gained the streaming-shape flag and the hash-chunk size
//       (decoupled streaming scan pipeline).
//   v3: delta scanning removed. The FusionConfig record lost its delta-scan
//       flag byte, the machine section its write-epoch flag, each address
//       space its write-epoch records, and each engine section its pass-cache
//       ledger (KSM also its stable-tree version).
//   v4: the barrier scan shape removed. The FusionConfig record lost the
//       streaming-shape flag and the hash-chunk size; a scan_threads above
//       host::ThreadPool::kMaxThreads fails closed.
//   v5: the byte-ordered tree mode removed. The FusionConfig record lost its
//       byte-ordered-trees flag byte, and KSM's section its unstable rb-tree
//       preorder block (the per-hash chains are the only unstable structure).
//   v6: batched charging and the metrics on/off switch removed. The latency
//       section lost its batching flag byte, the metrics section its enabled
//       flag byte, and the dram section the rowhammer flip count (the flip
//       log's length is the count).
//   v7: KSM's engine section keeps merge state only. It lost the stable
//       content index's bucket chains, the stable-lookup filter, the unstable
//       pool with its reachability flags, the fingerprint slot table and its
//       counters; the unstable items are written chain by chain, and restore
//       rebuilds the host indexes. MachineConfig lost enable_l1 (the config
//       record its byte, the cache section its L1 presence flag).
//   v8: WPF's engine section keeps its combined entries as one list (count,
//       then frame, refs and insert-time hash per entry, in key order shard by
//       shard). It lost the per-shard node counts, the AVL heights and child
//       flags, and the trailing entry count.
inline constexpr std::uint32_t kVersion = 8;
inline constexpr std::size_t kHeaderBytes = 20;  // magic + version + count + crc

// Structured restore failure: carries the name of the section (or "header")
// that failed validation or decoding. Restore paths throw this before mutating
// the target, so a failed load leaves the destination Machine untouched.
class RestoreError : public std::runtime_error {
 public:
  RestoreError(std::string section, const std::string& detail)
      : std::runtime_error("snapshot restore failed [" + section + "]: " + detail),
        section_(std::move(section)) {}

  [[nodiscard]] const std::string& section() const { return section_; }

 private:
  std::string section_;
};

namespace detail {

inline const std::array<std::uint32_t, 256>& Crc32Table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace detail

inline std::uint32_t Crc32(const void* data, std::size_t size) {
  const auto& table = detail::Crc32Table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Accumulates named, checksummed sections; Finish() prepends the header.
class SnapshotWriter {
 public:
  // --- Section framing ---

  void BeginSection(std::string_view name) {
    AppendLe<std::uint16_t>(frames_, static_cast<std::uint16_t>(name.size()));
    frames_.append(name.data(), name.size());
    payload_.clear();
    in_section_ = true;
  }

  void EndSection() {
    AppendLe<std::uint64_t>(frames_, payload_.size());
    frames_.append(payload_);
    AppendLe<std::uint32_t>(frames_, Crc32(payload_.data(), payload_.size()));
    payload_.clear();
    in_section_ = false;
    ++section_count_;
  }

  // --- Primitives (all little-endian; doubles are bit-exact) ---

  void U8(std::uint8_t v) { AppendLe(payload_, v); }
  void U16(std::uint16_t v) { AppendLe(payload_, v); }
  void U32(std::uint32_t v) { AppendLe(payload_, v); }
  void U64(std::uint64_t v) { AppendLe(payload_, v); }
  void I64(std::int64_t v) { AppendLe(payload_, static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLe(payload_, bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Bytes(const void* data, std::size_t size) {
    payload_.append(static_cast<const char*>(data), size);
  }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    payload_.append(s.data(), s.size());
  }

  [[nodiscard]] std::string Finish() const {
    std::string out;
    out.reserve(kHeaderBytes + frames_.size());
    AppendLe<std::uint64_t>(out, kMagic);
    AppendLe<std::uint32_t>(out, kVersion);
    AppendLe<std::uint32_t>(out, section_count_);
    AppendLe<std::uint32_t>(out, Crc32(out.data(), out.size()));
    out.append(frames_);
    return out;
  }

 private:
  template <typename T>
  static void AppendLe(std::string& dst, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      dst.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF));
    }
  }

  std::string frames_;
  std::string payload_;
  std::uint32_t section_count_ = 0;
  bool in_section_ = false;
};

// Validates the whole snapshot up front, then serves sections strictly in
// order. Any framing or checksum defect throws RestoreError before the caller
// sees a single byte of payload.
class SnapshotReader {
 public:
  struct SectionInfo {
    std::string name;
    std::size_t offset = 0;  // payload start within the buffer
    std::size_t size = 0;    // payload bytes
  };

  explicit SnapshotReader(std::string_view data) : data_(data) { Validate(); }

  [[nodiscard]] const std::vector<SectionInfo>& sections() const { return sections_; }

  // Opens the next section, which must carry the expected name; version skew
  // (added/removed/reordered sections) therefore fails closed with the name of
  // the section the restore code was expecting.
  void OpenSection(std::string_view name) {
    if (next_section_ >= sections_.size()) {
      throw RestoreError(std::string(name), "section missing (snapshot ends early)");
    }
    const SectionInfo& info = sections_[next_section_];
    if (info.name != name) {
      throw RestoreError(std::string(name),
                         "section out of order (found '" + info.name + "')");
    }
    cursor_ = info.offset;
    end_ = info.offset + info.size;
    current_ = info.name;
    ++next_section_;
  }

  void EndSection() {
    if (cursor_ != end_) {
      throw RestoreError(current_, "trailing bytes in section payload");
    }
  }

  // --- Primitives ---

  std::uint8_t U8() { return ReadLe<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLe<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(ReadLe<std::uint64_t>()); }
  double F64() {
    const std::uint64_t bits = ReadLe<std::uint64_t>();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Bool() { return U8() != 0; }
  void Bytes(void* out, std::size_t size) {
    Need(size);
    std::memcpy(out, data_.data() + cursor_, size);
    cursor_ += size;
  }
  std::string Str() {
    const std::uint32_t size = U32();
    Need(size);
    std::string s(data_.substr(cursor_, size));
    cursor_ += size;
    return s;
  }

  // Decodes a frame id and rejects one at or past `frame_count`, so a damaged
  // image cannot index physical memory out of bounds.
  std::uint32_t Frame(std::size_t frame_count) {
    const std::uint32_t frame = U32();
    if (frame >= frame_count) {
      throw RestoreError(current_, "frame id " + std::to_string(frame) + " out of range");
    }
    return frame;
  }

  // Decodes a count that will drive a container reserve/loop; bounds it by the
  // bytes actually remaining so a corrupt count cannot drive a huge allocation.
  std::uint64_t Count(std::size_t min_bytes_per_element = 1) {
    const std::uint64_t n = U64();
    const std::size_t remaining = end_ - cursor_;
    if (min_bytes_per_element != 0 && n > remaining / min_bytes_per_element) {
      throw RestoreError(current_, "element count exceeds section payload");
    }
    return n;
  }

 private:
  void Validate() {
    if (data_.size() < kHeaderBytes) {
      throw RestoreError("header", "truncated header");
    }
    std::size_t pos = 0;
    const std::uint64_t magic = PeekLe<std::uint64_t>(pos);
    const std::uint32_t version = PeekLe<std::uint32_t>(pos);
    const std::uint32_t count = PeekLe<std::uint32_t>(pos);
    const std::uint32_t stored_crc = PeekLe<std::uint32_t>(pos);
    if (Crc32(data_.data(), kHeaderBytes - sizeof(std::uint32_t)) != stored_crc) {
      throw RestoreError("header", "header checksum mismatch");
    }
    if (magic != kMagic) {
      throw RestoreError("header", "bad magic (not a vusion snapshot)");
    }
    if (version != kVersion) {
      throw RestoreError("header", "unsupported snapshot version " + std::to_string(version));
    }
    sections_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string frame_label = "section[" + std::to_string(i) + "]";
      if (data_.size() - pos < sizeof(std::uint16_t)) {
        throw RestoreError(frame_label, "truncated section name length");
      }
      const std::uint16_t name_len = PeekLe<std::uint16_t>(pos);
      if (data_.size() - pos < name_len) {
        throw RestoreError(frame_label, "truncated section name");
      }
      std::string name(data_.substr(pos, name_len));
      pos += name_len;
      if (data_.size() - pos < sizeof(std::uint64_t)) {
        throw RestoreError(name, "truncated payload length");
      }
      const std::uint64_t payload_len = PeekLe<std::uint64_t>(pos);
      if (data_.size() - pos < payload_len ||
          data_.size() - pos - payload_len < sizeof(std::uint32_t)) {
        throw RestoreError(name, "truncated payload");
      }
      const std::size_t payload_off = pos;
      pos += payload_len;
      const std::uint32_t stored = PeekLe<std::uint32_t>(pos);
      if (Crc32(data_.data() + payload_off, payload_len) != stored) {
        throw RestoreError(name, "payload checksum mismatch");
      }
      sections_.push_back({std::move(name), payload_off, payload_len});
    }
    if (pos != data_.size()) {
      throw RestoreError("header", "trailing bytes after last section");
    }
  }

  template <typename T>
  T PeekLe(std::size_t& pos) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos + i])) << (8 * i);
    }
    pos += sizeof(T);
    return static_cast<T>(v);
  }

  void Need(std::size_t size) {
    if (end_ - cursor_ < size) {
      throw RestoreError(current_, "field read past section payload");
    }
  }

  template <typename T>
  T ReadLe() {
    Need(sizeof(T));
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[cursor_ + i])) << (8 * i);
    }
    cursor_ += sizeof(T);
    return static_cast<T>(v);
  }

  std::string_view data_;
  std::vector<SectionInfo> sections_;
  std::size_t next_section_ = 0;
  std::size_t cursor_ = 0;
  std::size_t end_ = 0;
  std::string current_ = "header";
};

}  // namespace vusion::snapshot

#endif  // VUSION_SRC_SNAPSHOT_IO_H_
