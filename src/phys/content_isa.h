// Content primitives for the scan hot loop: page hashing, three-way compare,
// and zero detection over whole 4 KB pages.
//
// The hash is a fixed 8-lane FNV variant: the page is read as 512 little-endian
// 64-bit words, striped across 8 independent FNV-1a lanes (lane i absorbs words
// i, i+8, i+16, ...), and the lanes are folded through a SplitMix64 finalizer
// into one 64-bit digest. The digest is a property of the page bytes, never of
// the host CPU. KSM and VUsion depend only on equal contents hashing equal:
// their trees sort by hash on the host and charge by tree size. WPF depends on
// the concrete values: each pass sorts its candidates by hash and picks one of
// 16 trees by hash % 16, so its merge order and charged descent sizes follow
// the hash. Changing the hash therefore changes WPF's simulated output, and
// ContentIsaTest.HashGoldenValues pins it.
//
// Compare and the zero test are std::memcmp (against a static zero page for
// the latter): glibc's memcmp outruns hand-written scalar, wordwise and AVX2
// loops on a 4 KB page (DESIGN.md §11). There is one implementation and no
// dispatch. Every entry point is stateless and thread-safe: streaming-scan
// workers call them concurrently.

#ifndef VUSION_SRC_PHYS_CONTENT_ISA_H_
#define VUSION_SRC_PHYS_CONTENT_ISA_H_

#include <cstddef>
#include <cstdint>

namespace vusion {

// Pages are exactly 4096 bytes.
std::uint64_t HashPage(const std::uint8_t* page);
// Lexicographic byte order: memcmp's sign, normalized to -1/0/1.
int ComparePages(const std::uint8_t* a, const std::uint8_t* b);
bool IsZeroPage(const std::uint8_t* page);

// The three primitives as a named table. Only perfbench reads it, to print
// the table's name in its report; the simulator calls the functions directly.
struct ContentOps {
  const char* name;
  std::uint64_t (*hash_page)(const std::uint8_t* page);
  int (*compare_pages)(const std::uint8_t* a, const std::uint8_t* b);
  bool (*is_zero)(const std::uint8_t* page);
};

// The one table, named "portable".
const ContentOps& ActiveContentOps();

// Hash of the all-zero page (computed once, cached).
std::uint64_t ZeroPageHash();

// Expands a pattern seed into 4096 bytes (the SplitMix64 word stream shared
// with PatternByte). `out` must hold kPageSize bytes.
void ExpandPattern(std::uint64_t seed, std::uint8_t* out);

// Word w (8 bytes) of the pattern stream for `seed`.
std::uint64_t PatternWord(std::uint64_t seed, std::size_t word_index);

}  // namespace vusion

#endif  // VUSION_SRC_PHYS_CONTENT_ISA_H_
