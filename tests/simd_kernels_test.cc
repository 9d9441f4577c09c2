#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"
#include "simd_levels.h"
#include "text/similarity.h"
#include "util/random.h"

namespace mc::simd {
namespace {

// Reference: the greedy two-pointer merge count, written naively. All kernels
// at all levels must equal this on every ascending input (duplicates
// included).
size_t MergeCount(const std::vector<uint32_t>& a,
                  const std::vector<uint32_t>& b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

// Sorted vector of `length` values drawn from [0, universe), optionally with
// duplicate runs.
std::vector<uint32_t> MakeSorted(Rng& rng, size_t length, uint32_t universe,
                                 bool with_duplicates) {
  std::vector<uint32_t> values;
  values.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    values.push_back(static_cast<uint32_t>(rng.NextBelow(universe)));
    if (with_duplicates && !values.empty() && rng.NextBelow(4) == 0) {
      values.push_back(values.back());  // Force duplicate runs.
      ++i;
    }
  }
  values.resize(std::min(values.size(), length));
  std::sort(values.begin(), values.end());
  if (!with_duplicates) {
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  return values;
}

struct Case {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  size_t offset_a = 0;  // Start index into `a` — exercises unaligned spans.
  size_t offset_b = 0;
};

// The randomized corpus the per-level checks run against: lengths 0–4k,
// balanced and heavily skewed (beyond the galloping cut-over), dense and
// sparse universes, duplicate-laden inputs, and unaligned span starts.
std::vector<Case> BuildCases() {
  Rng rng(20260806);
  std::vector<Case> cases;
  const size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                            31, 33, 64, 100, 257, 1000, 4096};
  for (size_t len_a : lengths) {
    for (size_t len_b : {len_a, len_a / 3, len_a * 2}) {
      for (bool dups : {false, true}) {
        Case c;
        const uint32_t universe =
            static_cast<uint32_t>(std::max<size_t>(len_a + len_b, 8) *
                                  (rng.NextBelow(2) == 0 ? 1 : 4));
        c.a = MakeSorted(rng, len_a, universe, dups);
        c.b = MakeSorted(rng, std::max<size_t>(len_b, 1) - (len_b == 0),
                         universe, dups);
        c.offset_a = rng.NextBelow(4);
        c.offset_b = rng.NextBelow(4);
        cases.push_back(std::move(c));
      }
    }
  }
  // Skew ratios at and far past the galloping cut-over.
  for (size_t short_len : {1, 2, 5, 16, 100}) {
    for (size_t ratio : {internal::kGallopSkew - 1, internal::kGallopSkew,
                         internal::kGallopSkew * 8}) {
      Case c;
      c.a = MakeSorted(rng, short_len, 1 << 16, true);
      c.b = MakeSorted(rng, short_len * ratio, 1 << 16, true);
      c.offset_a = rng.NextBelow(4);
      cases.push_back(std::move(c));
    }
  }
  // Identical arrays, disjoint ranges, and full-duplicate runs.
  {
    Case same;
    same.a = MakeSorted(rng, 500, 600, true);
    same.b = same.a;
    cases.push_back(same);
    Case disjoint;
    disjoint.a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    disjoint.b = {100, 101, 102, 103, 104, 105, 106, 107, 108};
    cases.push_back(disjoint);
    Case runs;
    runs.a.assign(64, 7);
    runs.b.assign(48, 7);
    runs.b.insert(runs.b.end(), 16, 9);
    cases.push_back(runs);
  }
  return cases;
}

struct SpanView {
  const uint32_t* data;
  size_t length;
  std::vector<uint32_t> owned_a;  // Keeps offset views alive.
};

std::pair<std::vector<uint32_t>, std::vector<uint32_t>> Materialize(
    const Case& c) {
  // Prepend `offset` sentinel values below/above the data so the span start
  // is unaligned relative to the allocation without changing the contents.
  std::vector<uint32_t> storage_a(c.offset_a, 0);
  storage_a.insert(storage_a.end(), c.a.begin(), c.a.end());
  std::vector<uint32_t> storage_b(c.offset_b, 0);
  storage_b.insert(storage_b.end(), c.b.begin(), c.b.end());
  return {std::move(storage_a), std::move(storage_b)};
}

TEST(SimdKernelsTest, AllLevelsMatchMergeReference) {
  const auto cases = BuildCases();
  for (SimdLevel level : UsableLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_EQ(ActiveSimdLevel(), level);
    for (size_t idx = 0; idx < cases.size(); ++idx) {
      const Case& c = cases[idx];
      const auto [storage_a, storage_b] = Materialize(c);
      const uint32_t* a = storage_a.data() + c.offset_a;
      const uint32_t* b = storage_b.data() + c.offset_b;
      const size_t expected = MergeCount(c.a, c.b);
      EXPECT_EQ(OverlapCount(a, c.a.size(), b, c.b.size()), expected)
          << "level=" << SimdLevelName(level) << " case=" << idx;
      EXPECT_EQ(OverlapCount(b, c.b.size(), a, c.a.size()), expected)
          << "level=" << SimdLevelName(level) << " case=" << idx
          << " (swapped)";
    }
  }
}

TEST(SimdKernelsTest, AtLeastMatchesSpecAtEveryThreshold) {
  const auto cases = BuildCases();
  for (SimdLevel level : UsableLevels()) {
    ScopedSimdLevel scoped(level);
    for (size_t idx = 0; idx < cases.size(); ++idx) {
      const Case& c = cases[idx];
      const auto [storage_a, storage_b] = Materialize(c);
      const uint32_t* a = storage_a.data() + c.offset_a;
      const uint32_t* b = storage_b.data() + c.offset_b;
      const size_t exact = MergeCount(c.a, c.b);
      for (size_t required : {size_t{0}, exact, exact + 1,
                              std::min(c.a.size(), c.b.size()) + 1}) {
        size_t overlap = static_cast<size_t>(-1);
        const bool ok =
            OverlapAtLeast(a, c.a.size(), b, c.b.size(), required, &overlap);
        EXPECT_EQ(ok, exact >= required)
            << "level=" << SimdLevelName(level) << " case=" << idx
            << " required=" << required;
        if (ok) {
          EXPECT_EQ(overlap, exact)
              << "level=" << SimdLevelName(level) << " case=" << idx
              << " required=" << required;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, BatchEntryPointsMatchScalarScores) {
  Rng rng(7);
  std::vector<std::vector<uint32_t>> pool;
  for (size_t i = 0; i < 64; ++i) {
    pool.push_back(MakeSorted(rng, rng.NextBelow(300), 1 << 12,
                              rng.NextBelow(2) == 0));
  }
  const std::vector<uint32_t> probe = MakeSorted(rng, 120, 1 << 12, true);
  std::vector<RankSpan> candidates;
  for (const auto& c : pool) {
    candidates.push_back(
        {c.data(), static_cast<uint32_t>(c.size())});
  }
  const RankSpan probe_span = {probe.data(),
                               static_cast<uint32_t>(probe.size())};

  // Scalar reference outputs.
  std::vector<size_t> want_overlaps(pool.size());
  std::vector<double> want_scores(pool.size());
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    OverlapMany(probe_span, candidates.data(), candidates.size(),
                want_overlaps.data());
    ScoreMany(probe_span, candidates.data(), candidates.size(),
              SetMeasure::kJaccard, want_scores.data());
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(want_overlaps[i],
                MergeCount(probe, pool[i]))
          << "scalar OverlapMany disagrees with reference at " << i;
    }
  }

  for (SimdLevel level : UsableLevels()) {
    ScopedSimdLevel scoped(level);
    std::vector<size_t> overlaps(pool.size(), static_cast<size_t>(-1));
    std::vector<double> scores(pool.size(), -1.0);
    OverlapMany(probe_span, candidates.data(), candidates.size(),
                overlaps.data());
    ScoreMany(probe_span, candidates.data(), candidates.size(),
              SetMeasure::kJaccard, scores.data());
    EXPECT_EQ(overlaps, want_overlaps) << "level=" << SimdLevelName(level);
    for (size_t i = 0; i < pool.size(); ++i) {
      // Bit-identity, not tolerance: same integer counts through the same
      // double arithmetic.
      EXPECT_EQ(scores[i], want_scores[i])
          << "level=" << SimdLevelName(level) << " candidate=" << i;
    }
  }
}

TEST(SimdKernelsTest, DispatchReportsUsableLevelAndOverrides) {
  const SimdLevel ambient = ActiveSimdLevel();
  EXPECT_LE(ambient, MaxSupportedSimdLevel());
  for (SimdLevel level : UsableLevels()) {
    EXPECT_TRUE(SetSimdLevel(level));
    EXPECT_EQ(ActiveSimdLevel(), level);
  }
  if (MaxSupportedSimdLevel() < SimdLevel::kAvx2) {
    EXPECT_FALSE(SetSimdLevel(SimdLevel::kAvx2));
  }
  EXPECT_TRUE(SetSimdLevel(ambient));
  EXPECT_FALSE(SimdCpuFlags().empty());
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse4), "sse4");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdKernelsTest, RankSpanOverloadMatchesStringOverlap) {
  // The rank-span OverlapSize overload must agree with the kernels.
  std::vector<uint32_t> a = {1, 4, 4, 9, 20, 21};
  std::vector<uint32_t> b = {2, 4, 4, 4, 9, 22};
  EXPECT_EQ(OverlapSize(RankSpan{a.data(), 6}, RankSpan{b.data(), 6}),
            OverlapCount(a.data(), a.size(), b.data(), b.size()));
  EXPECT_EQ(OverlapSize(RankSpan{a.data(), 6}, RankSpan{b.data(), 6}), 3u);
}

}  // namespace
}  // namespace mc::simd
