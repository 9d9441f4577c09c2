#ifndef MATCHCATCHER_SIMD_BLOCK_CORE_H_
#define MATCHCATCHER_SIMD_BLOCK_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_impl.h"

// Shared skeleton of the SSE4/AVX2 intersection kernels. Each vector TU
// instantiates BlockCore with an Ops policy providing:
//
//   static constexpr size_t kWidth;            // lanes per block
//   static size_t Matches(const uint32_t* a, const uint32_t* b);
//       // how many of a[0..kWidth) appear in b[0..kWidth)
//       // (both blocks strictly increasing)
//   static bool HasAdjacentDup(const uint32_t* p);
//       // any p[i] == p[i + 1] for i in [0, kWidth) — i.e. a duplicate run
//       // inside the block or crossing into its boundary element
//
// The skeleton implements the classic sorted-set block intersection: compare
// the two current blocks all-against-all (Matches), then advance whichever
// block has the smaller maximum (both on a tie). For strictly increasing
// inputs each value matches in exactly one partner block, so summing
// Matches() reproduces the merge count exactly.
//
// Inputs with duplicates would break the per-lane counting (a value present
// twice would match twice), so each iteration first screens both blocks —
// including the one element past the block, which catches runs crossing a
// block boundary — and routes a duplicate-laden stretch through the scalar
// merge for kWidth steps. That keeps every level's result equal to the
// scalar reference on *all* sorted inputs, not just sets, which is what the
// randomized property tests assert.
//
// The template is header-only on purpose: each vector TU compiles it with
// its own -m ISA flags; nothing here may be referenced from generic code.

namespace mc::simd::internal {

enum class BlockMode {
  kFull,     // exact count
  kAtLeast,  // early-abandon via positional bound (sets *ok)
};

template <typename Ops, BlockMode kMode>
size_t BlockCore(const uint32_t* a, size_t len_a, const uint32_t* b,
                 size_t len_b, size_t bound, bool* ok) {
  constexpr size_t kW = Ops::kWidth;
  size_t i = 0, j = 0, count = 0;
  // The +1 keeps the duplicate screen's one-past-the-block load in bounds.
  while (i + kW + 1 <= len_a && j + kW + 1 <= len_b) {
    if constexpr (kMode == BlockMode::kAtLeast) {
      if (count + std::min(len_a - i, len_b - j) < bound) {
        *ok = false;
        return count;
      }
    }
    if (Ops::HasAdjacentDup(a + i) || Ops::HasAdjacentDup(b + j)) {
      count += ScalarOverlapResume(a, len_a, b, len_b, &i, &j, kW);
    } else {
      count += Ops::Matches(a + i, b + j);
      const uint32_t a_max = a[i + kW - 1];
      const uint32_t b_max = b[j + kW - 1];
      i += a_max <= b_max ? kW : 0;
      j += b_max <= a_max ? kW : 0;
    }
  }
  // Scalar tail (also handles inputs shorter than one block).
  while (i < len_a && j < len_b) {
    if constexpr (kMode == BlockMode::kAtLeast) {
      if (count + std::min(len_a - i, len_b - j) < bound) {
        *ok = false;
        return count;
      }
    }
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  // kAtLeast: a side can exhaust before the positional bound fires; the
  // final count decides, keeping `true iff count >= bound` exact at all
  // levels (levels differ only in *where* they abandon, never the boolean).
  if constexpr (kMode == BlockMode::kAtLeast) *ok = count >= bound;
  return count;
}

template <typename Ops>
size_t BlockOverlap(const uint32_t* a, size_t len_a, const uint32_t* b,
                    size_t len_b) {
  return BlockCore<Ops, BlockMode::kFull>(a, len_a, b, len_b, 0, nullptr);
}

template <typename Ops>
bool BlockOverlapAtLeast(const uint32_t* a, size_t len_a, const uint32_t* b,
                         size_t len_b, size_t required, size_t* overlap) {
  bool ok = false;
  const size_t count =
      BlockCore<Ops, BlockMode::kAtLeast>(a, len_a, b, len_b, required, &ok);
  if (!ok) return false;
  *overlap = count;
  return true;
}

}  // namespace mc::simd::internal

#endif  // MATCHCATCHER_SIMD_BLOCK_CORE_H_
