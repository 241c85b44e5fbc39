// Property tests for the content primitives: the one implementation must
// compute the exact same hash, three-way compare, and zero verdict as
// independently written byte-loop references, over random, zero, pattern,
// CoW-aliased, and boundary-byte-differing pages.

#include "src/phys/content_isa.h"

#include <array>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/phys/frame.h"
#include "src/sim/rng.h"

namespace vusion {
namespace {

using Page = std::array<std::uint8_t, kPageSize>;

// Independent reference for the 8-lane FNV page hash, written from the spec in
// content_isa.h rather than shared with the implementation under test.
std::uint64_t RefFin(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t RefHash(const std::uint8_t* page) {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t lanes[8];
  for (std::size_t i = 0; i < 8; ++i) {
    lanes[i] = RefFin(kOffset + 0x9e3779b97f4a7c15ULL * (i + 1));
  }
  for (std::size_t w = 0; w < kPageSize / 8; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, page + w * 8, 8);
    lanes[w % 8] = (lanes[w % 8] ^ word) * kPrime;
  }
  std::uint64_t h = kOffset;
  for (std::size_t i = 0; i < 8; ++i) {
    h = (h ^ RefFin(lanes[i])) * kPrime;
  }
  return h;
}

// Byte loops, so the references share no code with the memcmp-based
// implementation.
int RefCompare(const std::uint8_t* a, const std::uint8_t* b) {
  for (std::size_t i = 0; i < kPageSize; ++i) {
    if (a[i] != b[i]) {
      return a[i] < b[i] ? -1 : 1;
    }
  }
  return 0;
}

bool RefIsZero(const std::uint8_t* page) {
  for (std::size_t i = 0; i < kPageSize; ++i) {
    if (page[i] != 0) {
      return false;
    }
  }
  return true;
}

Page RandomPage(Rng& rng) {
  Page p;
  for (std::size_t w = 0; w < kPageSize / 8; ++w) {
    const std::uint64_t v = rng.Next();
    std::memcpy(p.data() + w * 8, &v, 8);
  }
  return p;
}

TEST(ContentIsaTest, HashMatchesReferenceOnRandomPages) {
  Rng rng(0xc0471501);
  for (int iter = 0; iter < 64; ++iter) {
    const Page p = RandomPage(rng);
    EXPECT_EQ(HashPage(p.data()), RefHash(p.data()));
  }
}

// Golden values. WPF sorts candidates by hash and picks its tree by
// hash % 16, so its simulated output (merge order, charged descent sizes,
// the clock) follows the concrete hash: a hash change must fail here rather
// than quietly move WPF's numbers.
TEST(ContentIsaTest, HashGoldenValues) {
  Page page{};
  EXPECT_EQ(HashPage(page.data()), 0x457ffa8bbffe03c1ULL);
  EXPECT_EQ(ZeroPageHash(), 0x457ffa8bbffe03c1ULL);
  ExpandPattern(0x9000, page.data());
  EXPECT_EQ(HashPage(page.data()), 0x131334dc7254d60aULL);
  page.fill(0xa5);
  EXPECT_EQ(HashPage(page.data()), 0x56dd39bdd02d908eULL);
}

TEST(ContentIsaTest, HashOfZeroAndPatternPages) {
  Page zero{};
  const std::uint64_t zero_want = RefHash(zero.data());
  EXPECT_EQ(ZeroPageHash(), zero_want);
  EXPECT_EQ(HashPage(zero.data()), zero_want);
  Page pattern;
  for (const std::uint64_t seed : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    ExpandPattern(seed, pattern.data());
    // The pattern byte stream really is the PatternWord stream.
    for (std::size_t w = 0; w < kPageSize / 8; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, pattern.data() + w * 8, 8);
      ASSERT_EQ(word, PatternWord(seed, w));
    }
    EXPECT_EQ(HashPage(pattern.data()), RefHash(pattern.data()));
  }
}

TEST(ContentIsaTest, CompareMatchesMemcmpIncludingBoundaryBytes) {
  Rng rng(0x51deb00c);
  const Page base = RandomPage(rng);
  // CoW-aliased case: identical buffers (and literally the same buffer).
  Page equal = base;
  EXPECT_EQ(ComparePages(base.data(), equal.data()), 0);
  EXPECT_EQ(ComparePages(base.data(), base.data()), 0);
  EXPECT_EQ(HashPage(base.data()), HashPage(equal.data()));
  // Single-byte differences at the first/last byte, word and vector-width
  // edges, and random offsets.
  std::vector<std::size_t> offsets = {0,    1,    7,    8,    15,   16,  31,
                                      32,   63,   64,   255,  256,  511, 2047,
                                      2048, 4064, 4088, 4094, 4095};
  for (int i = 0; i < 32; ++i) {
    offsets.push_back(rng.Next() % kPageSize);
  }
  for (const std::size_t off : offsets) {
    for (const int delta : {-1, 1}) {
      Page mutated = base;
      mutated[off] = static_cast<std::uint8_t>(mutated[off] + delta);
      const int want = RefCompare(base.data(), mutated.data());
      ASSERT_NE(want, 0);
      EXPECT_EQ(ComparePages(base.data(), mutated.data()), want) << "offset " << off;
      EXPECT_EQ(ComparePages(mutated.data(), base.data()), -want) << "offset " << off;
      EXPECT_NE(HashPage(mutated.data()), HashPage(base.data())) << "offset " << off;
    }
  }
}

TEST(ContentIsaTest, IsZeroDetectsEverySingleBitPage) {
  Page page{};
  EXPECT_TRUE(IsZeroPage(page.data()));
  EXPECT_EQ(IsZeroPage(page.data()), RefIsZero(page.data()));
  for (std::size_t bit = 0; bit < kPageSize * 8; ++bit) {
    page[bit / 8] = static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_EQ(IsZeroPage(page.data()), RefIsZero(page.data())) << "bit " << bit;
    page[bit / 8] = 0;
  }
}

}  // namespace
}  // namespace vusion
