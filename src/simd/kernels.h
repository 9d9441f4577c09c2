#ifndef MATCHCATCHER_SIMD_KERNELS_H_
#define MATCHCATCHER_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "text/similarity.h"

namespace mc::simd {

/// The similarity kernel plane: intersection kernels over the sorted uint32
/// rank spans that every post-tokenization stage operates on (TokenSpan /
/// CellSpan slices of the CSR arenas — see docs/algorithms.md §"SIMD kernel
/// dispatch"). Three implementations — portable scalar, SSE4, AVX2 — are
/// compiled into every binary; one is selected at first use from CPUID,
/// overridable with the MC_SIMD_LEVEL environment variable (scalar|sse4|avx2)
/// or SetSimdLevel() for tests and benches.
///
/// ## Contract (all levels, all kernels)
///
/// Inputs are ascending-sorted uint32 arrays. Every level returns the exact
/// same integers as the scalar reference — the greedy two-pointer merge count
/// (for ascending *sets* this is |A ∩ B|; arrays with duplicates are counted
/// with the merge's multiset semantics, min of the multiplicities). Because
/// every similarity in the system is derived from (|A|, |B|, overlap) via
/// SetSimilarityFromCounts, identical counts make every score, ranking, and
/// checksum bit-identical across dispatch levels (the determinism recipe of
/// the CSR-engine PRs; enforced by tests/simd_kernels_test.cc and, for the
/// verifier's scores, tests/verifier_test.cc).
///
/// Skewed lengths (one side much longer) divert to a shared galloping search
/// that consumes matched elements, reproducing the merge count exactly; it is
/// the same code at every level, so skew never threatens cross-level
/// identity.

/// Dispatch levels, in ascending capability order.
enum class SimdLevel : int {
  kScalar = 0,
  kSse4 = 1,
  kAvx2 = 2,
};

/// "scalar", "sse4", or "avx2".
const char* SimdLevelName(SimdLevel level);

/// Highest level this binary + CPU supports (compile-time ISA availability
/// intersected with CPUID feature bits).
SimdLevel MaxSupportedSimdLevel();

/// The active level. Resolved once on first use: MC_SIMD_LEVEL when set
/// (clamped to MaxSupportedSimdLevel with a one-line stderr note), otherwise
/// MaxSupportedSimdLevel().
SimdLevel ActiveSimdLevel();

/// Overrides the active level (tests / benches). Returns false — leaving the
/// active level unchanged — when `level` exceeds MaxSupportedSimdLevel().
/// Not intended for use while other threads are inside kernels; the swap is
/// atomic, but a concurrent caller may still finish on the previous level.
bool SetSimdLevel(SimdLevel level);

/// Human-readable CPU capability summary ("sse4.2 avx2" style), recorded in
/// bench JSON so archived records say what hardware picked the level.
std::string SimdCpuFlags();

/// Non-owning sorted rank span, layout-compatible with the (pointer, length)
/// prefix of TokenSpan and CellSpan. The batch kernels take arrays of these.
struct RankSpan {
  const uint32_t* data = nullptr;
  uint32_t length = 0;

  size_t size() const { return length; }
};

/// Exact greedy-merge intersection count of a[0..len_a) and b[0..len_b).
size_t OverlapCount(const uint32_t* a, size_t len_a, const uint32_t* b,
                    size_t len_b);

/// Bounded-overlap kernel for early-abandon scoring: returns true iff the
/// merge count is >= required, abandoning the merge as soon as even matching
/// every remaining token leaves the count below `required` (the positional
/// bound of the engine's SpanScoreAbove). On true, *overlap holds the exact
/// merge count. Because every similarity is monotone in the overlap for
/// fixed sizes, callers deriving `required` from a threshold may treat false
/// exactly as "the score is below the threshold". Levels may differ in
/// *where* they abandon (the bound is checked per SIMD block, not per
/// element), never in the returned boolean or count.
bool OverlapAtLeast(const uint32_t* a, size_t len_a, const uint32_t* b,
                    size_t len_b, size_t required, size_t* overlap);

/// Rank-span counterpart of the string-vector OverlapSize in
/// text/similarity.h: the overlap of two tokenized cells without ever
/// materializing strings. Plane-attached callers use this (or the kernels
/// above directly); the string-vector versions serve only tables with no
/// plane attached.
inline size_t OverlapSize(RankSpan a, RankSpan b) {
  return OverlapCount(a.data, a.length, b.data, b.length);
}

/// Batched counts: overlaps[i] = OverlapCount(probe, candidates[i]). One
/// dispatch for the whole batch; the probe span stays cache-resident across
/// candidates.
void OverlapMany(RankSpan probe, const RankSpan* candidates, size_t count,
                 size_t* overlaps);

/// Batched scoring: scores[i] = SetSimilarityFromCounts(measure,
/// probe.size(), candidates[i].size(), overlap_i). The batch entry point the
/// brute-force rankers and the micro bench drive.
void ScoreMany(RankSpan probe, const RankSpan* candidates, size_t count,
               SetMeasure measure, double* scores);

}  // namespace mc::simd

#endif  // MATCHCATCHER_SIMD_KERNELS_H_
