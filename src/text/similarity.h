#ifndef MATCHCATCHER_TEXT_SIMILARITY_H_
#define MATCHCATCHER_TEXT_SIMILARITY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace mc {

/// Set-based similarity measures over token sets (the measures the paper's
/// SSJ machinery supports: Jaccard, cosine, overlap, Dice — see Theorem 4.2),
/// plus edit distance for SIM blockers such as
/// ed(lastword(a.Name), lastword(b.Name)) <= 2.

/// Size of the intersection of two token sets. Duplicates in the inputs are
/// ignored (set semantics).
///
/// String path only: plane-attached callers must not tokenize strings per
/// pair — they go through the SIMD-dispatched rank-span kernels instead
/// (simd::OverlapSize / SortedSpanOverlap over TokenizedTable spans). These
/// string-vector entry points serve tables with no plane attached (a
/// truncated or never-built plane, ad-hoc predicates, raw-string
/// diagnosis/explain).
size_t OverlapSize(const std::vector<std::string>& a,
                   const std::vector<std::string>& b);

/// |A ∩ B| / |A ∪ B|; 1.0 when both sets are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// |A ∩ B| / sqrt(|A| * |B|); 1.0 when both sets are empty, 0 when one is.
double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b);

/// 2|A ∩ B| / (|A| + |B|); 1.0 when both sets are empty.
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// |A ∩ B| / min(|A|, |B|); 1.0 when both sets are empty, 0 when one is.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// Convenience: Jaccard over distinct word tokens of two raw strings.
double WordJaccard(std::string_view a, std::string_view b);

/// Convenience: Jaccard over distinct q-grams of two raw strings, for
/// q <= kMaxCodedQGram. The sets are AppendQGramCodes codes, the coder
/// whose codes the feature extractor's plane path memoizes, so both paths
/// share one definition of a gram set.
double QGramJaccard(std::string_view a, std::string_view b, size_t q);

/// Convenience: cosine over distinct word tokens of two raw strings.
double WordCosine(std::string_view a, std::string_view b);

/// Convenience: word-token overlap size of two raw strings. Legacy-only,
/// like OverlapSize above.
size_t WordOverlapSize(std::string_view a, std::string_view b);

/// Levenshtein distance (unit costs).
size_t EditDistance(std::string_view a, std::string_view b);

/// Levenshtein distance with early exit: returns `bound + 1` as soon as the
/// true distance provably exceeds `bound`. Used by edit-distance blockers.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound);

/// 1 - ed(a, b) / max(|a|, |b|); 1.0 when both strings are empty.
double NormalizedEditSimilarity(std::string_view a, std::string_view b);

/// American Soundex code of the first word token of `text` (e.g. "Robert"
/// -> "R163"); "" for inputs with no letters. Used by phonetic blocking.
std::string Soundex(std::string_view text);

/// Identifiers for the set-based measures supported by the top-k SSJ
/// machinery (Theorem 4.2 in the paper).
enum class SetMeasure {
  kJaccard,
  kCosine,
  kDice,
  kOverlapCoefficient,
};

const char* SetMeasureName(SetMeasure measure);

/// Computes the chosen measure from the primitive quantities |A|, |B|,
/// |A ∩ B|. All measures return 1.0 for two empty sets.
///
/// Defined inline: this is the innermost call of the top-k join's probe
/// loop (every positional/count bound and every exact score goes through
/// it), and keeping it in the header lets it fold into the caller.
inline double SetSimilarityFromCounts(SetMeasure measure, size_t size_a,
                                      size_t size_b, size_t overlap) {
  MC_CHECK_LE(overlap, std::min(size_a, size_b));
  if (size_a == 0 && size_b == 0) return 1.0;
  if (size_a == 0 || size_b == 0) return 0.0;
  const double o = static_cast<double>(overlap);
  const double a = static_cast<double>(size_a);
  const double b = static_cast<double>(size_b);
  switch (measure) {
    case SetMeasure::kJaccard:
      return o / (a + b - o);
    case SetMeasure::kCosine:
      return o / std::sqrt(a * b);
    case SetMeasure::kDice:
      return 2.0 * o / (a + b);
    case SetMeasure::kOverlapCoefficient:
      return o / std::min(a, b);
  }
  return 0.0;
}

/// Upper bound on the measure for any pair (a, y) where only tokens at
/// positions >= `position` of `a` (|a| = size_a, 0-based positions) can be
/// shared with y. This is the "cap" used to order prefix extensions and to
/// terminate top-k joins (paper §4.1). Monotonically non-increasing in
/// `position`, and an upper bound for every candidate partner y. Inline for
/// the same reason as SetSimilarityFromCounts.
inline double SetSimilarityCap(SetMeasure measure, size_t size_a,
                               size_t position) {
  if (size_a == 0 || position >= size_a) return 0.0;
  const double remaining = static_cast<double>(size_a - position);
  const double a = static_cast<double>(size_a);
  switch (measure) {
    case SetMeasure::kJaccard:
      // overlap <= remaining and union >= |a|.
      return remaining / a;
    case SetMeasure::kCosine:
      // max over |y| of min(remaining, |y|) / sqrt(a * |y|), attained at
      // |y| = remaining. Evaluated as the exact expression
      // SetSimilarityFromCounts computes for that attaining pair — the
      // algebraically equal sqrt(remaining / a) can round one ulp *below*
      // it (e.g. sqrt(3/8) < 3/sqrt(24)), and a cap below an achievable
      // exact score lets the strict termination bound drop an exact tie,
      // breaking canonical tie handling. Every other feasible (overlap,
      // |y|) scores relatively ~1/remaining below this sup, far beyond
      // rounding error, so the bound stays an upper bound.
      return remaining / std::sqrt(a * remaining);
    case SetMeasure::kDice:
      // max over |y| of 2 * min(remaining, |y|) / (a + |y|) at |y|=remaining.
      return 2.0 * remaining / (a + remaining);
    case SetMeasure::kOverlapCoefficient:
      // A partner fully contained in the remaining suffix scores 1.0; the
      // overlap coefficient admits no non-trivial prefix bound.
      return 1.0;
  }
  return 1.0;
}

}  // namespace mc

#endif  // MATCHCATCHER_TEXT_SIMILARITY_H_
