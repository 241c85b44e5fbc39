#include "src/phys/content_isa.h"

#include <cstring>

#include "src/phys/frame.h"

namespace vusion {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::size_t kLanes = 8;
constexpr std::size_t kWordsPerPage = kPageSize / 8;  // 512

alignas(64) constexpr std::uint8_t kZeroPage[kPageSize] = {};

// SplitMix64 finalizer; also the core of the pattern stream.
constexpr std::uint64_t Fin(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Distinct per-lane initial states so a word contributes differently depending
// on its position modulo kLanes.
constexpr std::uint64_t LaneInit(std::size_t lane) {
  return Fin(kFnvOffset + 0x9e3779b97f4a7c15ULL * (lane + 1));
}

std::uint64_t LoadWord(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

}  // namespace

std::uint64_t HashPage(const std::uint8_t* page) {
  std::uint64_t lanes[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) {
    lanes[i] = LaneInit(i);
  }
  // Block-unrolled 64-bit stripes: the 8 lanes are independent, so the loop
  // body auto-vectorizes.
  for (std::size_t block = 0; block < kWordsPerPage / kLanes; ++block) {
    const std::uint8_t* p = page + block * kLanes * 8;
    for (std::size_t i = 0; i < kLanes; ++i) {
      lanes[i] = (lanes[i] ^ LoadWord(p + i * 8)) * kFnvPrime;
    }
  }
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < kLanes; ++i) {
    h = (h ^ Fin(lanes[i])) * kFnvPrime;
  }
  return h;
}

int ComparePages(const std::uint8_t* a, const std::uint8_t* b) {
  const int c = std::memcmp(a, b, kPageSize);
  return (c > 0) - (c < 0);
}

bool IsZeroPage(const std::uint8_t* page) {
  return std::memcmp(page, kZeroPage, kPageSize) == 0;
}

const ContentOps& ActiveContentOps() {
  static constexpr ContentOps kPortable = {"portable", HashPage, ComparePages, IsZeroPage};
  return kPortable;
}

std::uint64_t ZeroPageHash() {
  static const std::uint64_t hash = HashPage(kZeroPage);
  return hash;
}

std::uint64_t PatternWord(std::uint64_t seed, std::size_t word_index) {
  return Fin(seed + 0x632be59bd9b4e019ULL * (word_index + 1) + 0x9e3779b97f4a7c15ULL);
}

void ExpandPattern(std::uint64_t seed, std::uint8_t* out) {
  for (std::size_t w = 0; w < kWordsPerPage; ++w) {
    const std::uint64_t word = PatternWord(seed, w);
    std::memcpy(out + w * 8, &word, 8);
  }
}

}  // namespace vusion
