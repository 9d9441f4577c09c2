// The count-all top-k kernel (RunCountAllJoinShard) against two references:
// the canonical oracle — the top-k under (score desc, pair asc) of the
// seeds and every non-excluded pair sharing at least q tokens — and the
// event engine (RunTopKJoin) given the same seed. Both lists are canonical,
// so pairs and scores must agree exactly, ties at the k-th score included,
// for every measure, q in 1..4 and shard count.

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

// Short rows over a small Zipf vocabulary (many equal scores, so ties at
// the k-th score are common), with a few empty rows on both sides.
std::pair<Table, Table> RandomTables(Rng& rng, size_t rows_a, size_t rows_b) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    std::string text;
    if (!rng.NextBool(0.05)) {
      const size_t n = 1 + rng.NextBelow(8);
      for (size_t t = 0; t < n; ++t) {
        if (t > 0) text += ' ';
        text += 'w';
        text += std::to_string(rng.NextZipf(30, 0.8));
      }
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows_a; ++i) make_row(a);
  for (size_t i = 0; i < rows_b; ++i) make_row(b);
  return {std::move(a), std::move(b)};
}

size_t OverlapOf(const ConfigView& view, RowId i, RowId j) {
  size_t overlap = 0;
  for (const uint32_t x : view.a(i)) {
    for (const uint32_t y : view.b(j)) overlap += x == y;
  }
  return overlap;
}

// The canonical list the kernels must return: seeds first (as the kernels
// offer them), then every q-eligible pair outside C. TopKList keeps the
// k-minimum of what it is offered whatever the order.
std::vector<ScoredPair> Oracle(const ConfigView& view, size_t k,
                               SetMeasure measure, size_t q,
                               const CandidateSet* exclude,
                               const std::vector<ScoredPair>& seed) {
  TopKList list(k);
  for (const ScoredPair& entry : seed) list.Add(entry.pair, entry.score);
  for (RowId i = 0; i < view.rows_a(); ++i) {
    for (RowId j = 0; j < view.rows_b(); ++j) {
      const PairId pair = MakePairId(i, j);
      const size_t overlap = OverlapOf(view, i, j);
      if (overlap < q || (exclude != nullptr && exclude->Contains(pair))) {
        continue;
      }
      list.Add(pair, SetSimilarityFromCounts(measure, view.a(i).size(),
                                             view.b(j).size(), overlap));
    }
  }
  return list.SortedDescending();
}

void ExpectSameList(const std::vector<ScoredPair>& got,
                    const std::vector<ScoredPair>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].pair, want[r].pair) << label << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score) << label << " rank " << r;
  }
}

// Runs every shard of a count-all join and merges the shard lists the way
// the joint executor does.
TopKList RunCountAllShards(const ConfigView& view,
                           const TopKJoinOptions& options, size_t shards,
                           const std::vector<ScoredPair>* seed,
                           TopKJoinStats* stats) {
  TopKList merged(options.k);
  for (size_t s = 0; s < shards; ++s) {
    TopKList list = RunCountAllJoinShard(view, options, s, shards, seed, stats);
    for (const ScoredPair& entry : list.Entries()) {
      merged.Add(entry.pair, entry.score);
    }
  }
  return merged;
}

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

class CountAllEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SetMeasure, size_t>> {
 protected:
  SetMeasure measure() const { return std::get<0>(GetParam()); }
  size_t q() const { return std::get<1>(GetParam()); }
};

TEST_P(CountAllEquivalenceTest, MatchesOracleAndEventEngine) {
  Rng rng(7000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 70, 55);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  const CountAllWork work = CountAllJoinWork(view);
  size_t b_tokens = 0;  // Postings of table B's index, built per shard.
  for (size_t j = 0; j < view.rows_b(); ++j) b_tokens += view.b(j).size();

  CandidateSet exclude;
  for (RowId i = 0; i < 70; i += 3) exclude.Add(i, (i * 7 + 1) % 55);
  for (RowId i = 0; i < 55; i += 4) exclude.Add(i, i);

  // Seeds as a parent's re-adjusted list delivers them: exact scores,
  // non-empty rows, nothing from C — q-eligible pairs and pairs sharing
  // fewer than q tokens (no token at all, too), which can stay listed.
  DirectPairScorer scorer(&view, measure());
  std::vector<ScoredPair> seed;
  size_t below_q = 0;
  for (RowId i = 0; i < 70; ++i) {
    const RowId j = (i * 13 + 5) % 55;
    const PairId pair = MakePairId(i, j);
    if (view.a(i).empty() || view.b(j).empty() || exclude.Contains(pair)) {
      continue;
    }
    below_q += OverlapOf(view, i, j) < q();
    seed.push_back(ScoredPair{pair, scorer.Score(i, j)});
  }
  ASSERT_GT(below_q, 0u);

  for (size_t k : {size_t{1}, size_t{17}, size_t{60}}) {
    for (bool seeded : {false, true}) {
      for (const CandidateSet* c : {static_cast<const CandidateSet*>(nullptr),
                                    static_cast<const CandidateSet*>(
                                        &exclude)}) {
        TopKJoinOptions options;
        options.k = k;
        options.measure = measure();
        options.q = q();
        options.exclude = c;
        const std::vector<ScoredPair>* s = seeded ? &seed : nullptr;
        const std::string label =
            "k=" + std::to_string(k) + (seeded ? " seeded" : "") +
            (c != nullptr ? " excluded" : "");
        const std::vector<ScoredPair> want =
            Oracle(view, k, measure(), q(), c,
                   seeded ? seed : std::vector<ScoredPair>{});
        ExpectSameList(RunTopKJoin(view, options, nullptr, s)
                           .SortedDescending(),
                       want, label + " event engine");
        for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
          TopKJoinStats stats;
          const TopKList got =
              RunCountAllShards(view, options, shards, s, &stats);
          const std::string shard_label =
              label + " shards=" + std::to_string(shards);
          ExpectSameList(got.SortedDescending(), want, shard_label);
          EXPECT_FALSE(stats.truncated) << shard_label;
          EXPECT_EQ(stats.events_popped, 0u) << shard_label;
          // The modeled work counts the kernel's increments exactly.
          EXPECT_EQ(stats.overlap_increments, work.increments)
              << shard_label;
          EXPECT_EQ(stats.tokens_indexed, shards * b_tokens) << shard_label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresAllQ, CountAllEquivalenceTest,
    ::testing::Combine(::testing::Values(SetMeasure::kJaccard,
                                         SetMeasure::kCosine,
                                         SetMeasure::kDice,
                                         SetMeasure::kOverlapCoefficient),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{4})),
    CaseName());

TEST(CountAllWorkTest, CountsIncrementsAndSlotVisits) {
  // Table B: rows {x y}, {y}, {z}; table A: {x y}, {y z}, {} — y has
  // df_B 2, x and z 1.
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"x y"});
  a.AddRow({"y z"});
  a.AddRow({""});
  b.AddRow({"x y"});
  b.AddRow({"y"});
  b.AddRow({"z"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  const CountAllWork work = CountAllJoinWork(view);
  // Row 0: 1 + 2 = 3 increments; row 1: 2 + 1 = 3; row 2: none.
  EXPECT_EQ(work.increments, 6u);
  // Each row's touched list would cost 4 * 3 >= 3 scan slots, so
  // both rows scan the 3 slots.
  EXPECT_EQ(work.slot_visits, 6u);
  TopKJoinStats stats;
  RunCountAllJoinShard(view, TopKJoinOptions{}, 0, 1, nullptr, &stats);
  EXPECT_EQ(stats.overlap_increments, work.increments);
  EXPECT_EQ(stats.pairs_discovered, 5u);  // (0,0) (0,1) (1,0) (1,1) (1,2).

  // A cost limit stops the count at the first row whose cost reaches it.
  const double row_cost = CountAllCost(3, 3);
  const CountAllWork partial = CountAllJoinWork(view, row_cost);
  EXPECT_EQ(partial.increments, 3u);
  EXPECT_EQ(partial.slot_visits, 3u);
  EXPECT_EQ(CountAllJoinWork(view, 2 * row_cost + 1.0).increments, 6u);
}

TEST(CountAllCancellationTest, CancelledBeforeStartKeepsOnlyTheSeeds) {
  Rng rng(7100);
  auto [a, b] = RandomTables(rng, 40, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  DirectPairScorer scorer(&view, SetMeasure::kJaccard);
  std::vector<ScoredPair> seed;
  for (RowId i = 0; i < 40; i += 5) {
    if (view.a(i).empty() || view.b(i).empty()) continue;
    seed.push_back(ScoredPair{MakePairId(i, i), scorer.Score(i, i)});
  }
  ASSERT_FALSE(seed.empty());

  TopKJoinOptions options;
  options.k = 10;
  options.run_context = RunContext::Cancellable();
  options.run_context.Cancel();
  TopKJoinStats stats;
  const TopKList got = RunCountAllJoinShard(view, options, 0, 1, &seed, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.overlap_increments, 0u);
  TopKList seeds_only(options.k);
  for (const ScoredPair& entry : seed) seeds_only.Add(entry.pair, entry.score);
  ExpectSameList(got.SortedDescending(), seeds_only.SortedDescending(),
                 "cancelled");
}

TEST(CountAllCancellationTest, DeadlineReturnsExactBestSoFar) {
  // Big enough that the join outlasts a 1 ms deadline; it polls after
  // every 64 increments, so it stops within a row or two of the deadline.
  Rng rng(7200);
  auto [a, b] = RandomTables(rng, 3000, 3000);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 50;
  options.q = 2;
  options.poll_period = 64;
  options.run_context = RunContext::WithDeadline(1);
  TopKJoinStats stats;
  const TopKList got = RunCountAllJoinShard(view, options, 0, 1, nullptr,
                                            &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(stats.overlap_increments, CountAllJoinWork(view).increments);
  // Best so far: exact scores of q-eligible pairs only.
  DirectPairScorer scorer(&view, options.measure);
  EXPECT_LE(got.size(), options.k);
  for (const ScoredPair& entry : got.Entries()) {
    const RowId i = PairRowA(entry.pair);
    const RowId j = PairRowB(entry.pair);
    EXPECT_EQ(entry.score, scorer.Score(i, j));
    EXPECT_GE(OverlapOf(view, i, j), options.q);
  }
}

}  // namespace
}  // namespace mc
