// Randomized equivalence harness for the QJoin engine: RunTopKJoin must
// match BruteForceTopK(min_overlap = q) — the exact top-k restricted to
// pairs sharing at least q tokens — across every SetMeasure, q in 1..4,
// the seeded/excluded variants, and the sharded parallel mode.
// Scores must agree exactly (both sides use the same merge + count
// arithmetic); pair identity must agree everywhere except among equal-score
// ties at the boundary (k-th) score, where either engine may legitimately
// keep a different member of the tie.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/random.h"
#include "util/run_context.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomTables(Rng& rng, size_t rows) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    std::string text;
    size_t n = 2 + rng.NextBelow(7);
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += 'w';
      text += std::to_string(rng.NextZipf(40, 0.8));
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows; ++i) {
    make_row(a);
    make_row(b);
  }
  return {std::move(a), std::move(b)};
}

size_t OverlapOf(const ConfigView& view, RowId i, RowId j) {
  TokenSpan a = view.a(i);
  TokenSpan b = view.b(j);
  size_t x = 0, y = 0, overlap = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x] == b[y]) {
      ++overlap;
      ++x;
      ++y;
    } else if (a[x] < b[y]) {
      ++x;
    } else {
      ++y;
    }
  }
  return overlap;
}

// Exact-score, boundary-tie-tolerant comparison (see file comment).
void ExpectSameTopK(const TopKList& got, const TopKList& want) {
  std::vector<ScoredPair> g = got.SortedDescending();
  std::vector<ScoredPair> w = want.SortedDescending();
  ASSERT_EQ(g.size(), w.size());
  if (w.empty()) return;
  const double boundary = w.back().score;
  for (size_t r = 0; r < g.size(); ++r) {
    ASSERT_EQ(g[r].score, w[r].score) << "rank " << r;
    if (w[r].score != boundary) {
      EXPECT_EQ(g[r].pair, w[r].pair) << "rank " << r;
    }
  }
}

// Scores exactly like DirectPairScorer, and cancels the join's RunContext
// on the n-th Score call, simulating a deadline firing mid-run.
class CancellingScorer : public PairScorer {
 public:
  CancellingScorer(const ConfigView* view, SetMeasure measure,
                   RunContext context, int cancel_on_call)
      : direct_(view, measure), context_(context), countdown_(cancel_on_call) {}

  double Score(RowId row_a, RowId row_b) override {
    if (--countdown_ == 0) context_.Cancel();
    return direct_.Score(row_a, row_b);
  }

 private:
  DirectPairScorer direct_;
  RunContext context_;
  int countdown_;
};

struct CaseName {
  template <typename ParamType>
  std::string operator()(
      const ::testing::TestParamInfo<ParamType>& info) const {
    static const char* kMeasureNames[] = {"jaccard", "cosine", "dice",
                                          "overlap"};
    return std::string(kMeasureNames[static_cast<int>(
               std::get<0>(info.param))]) +
           "_q" + std::to_string(std::get<1>(info.param));
  }
};

class SsjEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SetMeasure, size_t>> {
 protected:
  SetMeasure measure() const { return std::get<0>(GetParam()); }
  size_t q() const { return std::get<1>(GetParam()); }
};

TEST_P(SsjEquivalenceTest, MatchesBruteForce) {
  Rng rng(1000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 90);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 30;
  options.measure = measure();
  options.q = q();
  TopKList want = BruteForceTopK(view, options.k, measure(), nullptr, q());
  ExpectSameTopK(RunTopKJoin(view, options), want);
}

TEST_P(SsjEquivalenceTest, MatchesBruteForceWithExclusion) {
  Rng rng(2000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 80);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  CandidateSet exclude;
  for (RowId i = 0; i < 80; i += 2) exclude.Add(i, (i * 5 + 1) % 80);
  for (RowId i = 0; i < 80; i += 3) exclude.Add(i, i);

  TopKJoinOptions options;
  options.k = 25;
  options.measure = measure();
  options.q = q();
  options.exclude = &exclude;
  TopKList want = BruteForceTopK(view, options.k, measure(), &exclude, q());
  TopKList got = RunTopKJoin(view, options);
  ExpectSameTopK(got, want);
  for (const ScoredPair& entry : got.Entries()) {
    EXPECT_FALSE(exclude.Contains(entry.pair));
  }
}

TEST_P(SsjEquivalenceTest, MatchesBruteForceSeeded) {
  Rng rng(3000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 80);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 25;
  options.measure = measure();
  options.q = q();

  // Exclusion set: every other pair of the unrestricted top-k, so the
  // exclusion actually removes pairs the seeded run would otherwise keep.
  CandidateSet exclude;
  const std::vector<ScoredPair> unrestricted =
      BruteForceTopK(view, options.k, measure(), nullptr, q())
          .SortedDescending();
  for (size_t r = 0; r < unrestricted.size(); r += 2) {
    exclude.Add(PairRowA(unrestricted[r].pair),
                PairRowB(unrestricted[r].pair));
  }
  options.exclude = &exclude;

  // Seed: exact scores for q-eligible pairs outside C, as a parent's
  // re-adjusted top-k delivers them (a parent list never holds an excluded
  // pair): arbitrary pairs, plus every other pair of a deeper list, most of
  // which the final list displaces. Pairs below the q-overlap floor are
  // left out so the q-restricted brute force stays the ground truth.
  DirectPairScorer scorer(&view, measure());
  std::vector<ScoredPair> seed;
  for (RowId i = 0; i < 80; ++i) {
    RowId j = (i * 11 + 2) % 80;
    const PairId pair = MakePairId(i, j);
    if (OverlapOf(view, i, j) < q() || exclude.Contains(pair)) continue;
    seed.push_back(ScoredPair{pair, scorer.Score(i, j)});
  }
  const std::vector<ScoredPair> deeper =
      BruteForceTopK(view, 3 * options.k, measure(), nullptr, q())
          .SortedDescending();
  for (size_t r = 1; r < deeper.size(); r += 2) {
    if (!exclude.Contains(deeper[r].pair)) seed.push_back(deeper[r]);
  }
  ASSERT_FALSE(seed.empty());

  TopKList got = RunTopKJoin(view, options, nullptr, &seed);
  ExpectSameTopK(got, BruteForceTopK(view, options.k, measure(), &exclude,
                                     q()));
  for (const ScoredPair& entry : got.Entries()) {
    EXPECT_FALSE(exclude.Contains(entry.pair));
  }
}

TEST_P(SsjEquivalenceTest, ShardedMatchesSequentialScores) {
  Rng rng(4000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 90);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 30;
  options.measure = measure();
  options.q = q();
  TopKList want = BruteForceTopK(view, options.k, measure(), nullptr, q());
  for (size_t shards : {size_t{2}, size_t{7}}) {
    options.shards = shards;
    ExpectSameTopK(RunTopKJoin(view, options), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresAllQ, SsjEquivalenceTest,
    ::testing::Combine(::testing::Values(SetMeasure::kJaccard,
                                         SetMeasure::kCosine,
                                         SetMeasure::kDice,
                                         SetMeasure::kOverlapCoefficient),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{4})),
    CaseName());

TEST(SsjCancellationTest, TruncatedJoinReturnsExactlyScoredBestSoFar) {
  Rng rng(5000);
  auto [a, b] = RandomTables(rng, 150);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 40;
  options.poll_period = 32;  // Poll often so the cancel lands mid-run.
  options.run_context = RunContext::Cancellable();
  CancellingScorer cancel(&view, options.measure, options.run_context,
                          /*cancel_on_call=*/4);
  TopKJoinStats stats;
  TopKList got = RunTopKJoin(view, options, &cancel, nullptr, &stats);

  // The run was cut mid-join: flagged truncated, and the best-so-far list
  // is a subset of the true q-eligible pair space with *exact* scores — a
  // cancelled join never returns an unverified or partially computed score.
  EXPECT_TRUE(stats.truncated);
  TopKJoinOptions full_options;
  full_options.k = options.k;
  full_options.measure = options.measure;
  full_options.q = options.q;
  TopKList full = RunTopKJoin(view, full_options);
  EXPECT_LT(stats.events_popped, 150u * 7u);  // Stopped before draining.
  DirectPairScorer scorer(&view, options.measure);
  for (const ScoredPair& entry : got.Entries()) {
    EXPECT_EQ(entry.score, scorer.Score(PairRowA(entry.pair),
                                        PairRowB(entry.pair)));
    EXPECT_GE(OverlapOf(view, PairRowA(entry.pair), PairRowB(entry.pair)),
              options.q);
  }
  EXPECT_LE(got.size(), full.size());
}

}  // namespace
}  // namespace mc
