#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/candidate_set.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "ssj/topk_list.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "text/similarity.h"
#include "util/random.h"

namespace mc {
namespace {

TEST(TopKListTest, KeepsBestK) {
  TopKList list(3);
  EXPECT_EQ(list.KthScore(), -1.0);
  EXPECT_TRUE(list.Add(MakePairId(0, 0), 0.5));
  EXPECT_TRUE(list.Add(MakePairId(0, 1), 0.9));
  EXPECT_TRUE(list.Add(MakePairId(0, 2), 0.1));
  EXPECT_TRUE(list.full());
  EXPECT_DOUBLE_EQ(list.KthScore(), 0.1);
  EXPECT_TRUE(list.Add(MakePairId(0, 3), 0.7));   // Evicts 0.1.
  EXPECT_FALSE(list.Add(MakePairId(0, 4), 0.2));  // Below new k-th (0.5).
  std::vector<ScoredPair> sorted = list.SortedDescending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].score, 0.9);
  EXPECT_DOUBLE_EQ(sorted[1].score, 0.7);
  EXPECT_DOUBLE_EQ(sorted[2].score, 0.5);
}

TEST(TopKListTest, TiesPreferSmallerPairId) {
  TopKList list(2);
  list.Add(MakePairId(0, 5), 0.5);
  list.Add(MakePairId(0, 9), 0.5);
  // Equal score, smaller id: replaces the larger-id entry.
  EXPECT_TRUE(list.Add(MakePairId(0, 1), 0.5));
  EXPECT_TRUE(list.Contains(MakePairId(0, 1)));
  EXPECT_TRUE(list.Contains(MakePairId(0, 5)));
  EXPECT_FALSE(list.Contains(MakePairId(0, 9)));
  // Equal score, larger id than the worst: rejected.
  EXPECT_FALSE(list.Add(MakePairId(0, 7), 0.5));
}

TEST(TopKListTest, DuplicatePairIgnored) {
  TopKList list(2);
  list.Add(MakePairId(1, 1), 0.8);
  EXPECT_TRUE(list.Add(MakePairId(1, 1), 0.8));
  EXPECT_EQ(list.size(), 1u);
}

TEST(TopKListTest, ReAddUpdatesScoreInPlace) {
  TopKList list(3);
  list.Add(MakePairId(0, 0), 0.9);
  list.Add(MakePairId(0, 1), 0.5);
  list.Add(MakePairId(0, 2), 0.3);
  // Upward correction re-sifts: the k-th entry changes.
  EXPECT_TRUE(list.Add(MakePairId(0, 2), 0.7));
  EXPECT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list.KthScore(), 0.5);
  // Downward correction must not be fast-rejected even when the new score
  // is below the current k-th: the stored score updates in place.
  EXPECT_TRUE(list.Add(MakePairId(0, 0), 0.1));
  EXPECT_DOUBLE_EQ(list.KthScore(), 0.1);
  std::vector<ScoredPair> sorted = list.SortedDescending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].pair, MakePairId(0, 2));
  EXPECT_DOUBLE_EQ(sorted[0].score, 0.7);
  EXPECT_EQ(sorted[2].pair, MakePairId(0, 0));
  EXPECT_DOUBLE_EQ(sorted[2].score, 0.1);
  // A fresh pair below the (corrected) k-th is still rejected.
  EXPECT_FALSE(list.Add(MakePairId(0, 9), 0.05));
}

TEST(TopKListTest, MergeDeduplicates) {
  TopKList list(4);
  list.Add(MakePairId(0, 0), 0.9);
  list.Add(MakePairId(0, 1), 0.8);
  list.MergeFrom({{MakePairId(0, 0), 0.9}, {MakePairId(0, 2), 0.7}});
  EXPECT_EQ(list.size(), 3u);
}

TEST(TopKListTest, RandomizedAgainstSort) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    size_t k = 1 + rng.NextBelow(10);
    TopKList list(k);
    std::vector<ScoredPair> all;
    size_t n = 1 + rng.NextBelow(200);
    for (size_t i = 0; i < n; ++i) {
      ScoredPair entry{MakePairId(0, static_cast<RowId>(i)),
                       static_cast<double>(rng.NextBelow(20)) / 20.0};
      all.push_back(entry);
      list.Add(entry.pair, entry.score);
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredPair& x, const ScoredPair& y) {
                if (x.score != y.score) return x.score > y.score;
                return x.pair < y.pair;
              });
    all.resize(std::min(all.size(), k));
    std::vector<ScoredPair> got = list.SortedDescending();
    ASSERT_EQ(got.size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(got[i].pair, all[i].pair) << "trial " << trial << " i " << i;
      EXPECT_DOUBLE_EQ(got[i].score, all[i].score);
    }
  }
}

// --------------------------------------------------------------------------
// Corpus.
// --------------------------------------------------------------------------

std::pair<Table, Table> SmallTables() {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"Dave Smith", "Altanta"});
  a.AddRow({"Joe Welson", "New York"});
  a.AddRow({"", ""});
  b.AddRow({"David Smith", "Atlanta"});
  b.AddRow({"Joe Wilson", "NY"});
  return {std::move(a), std::move(b)};
}

TEST(CorpusTest, BuildAndConfigViews) {
  auto [a, b] = SmallTables();
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  EXPECT_EQ(corpus.num_attributes(), 2u);
  ASSERT_EQ(corpus.rows_a(), 3u);
  ASSERT_EQ(corpus.rows_b(), 2u);
  // a0 = {dave, smith} in name; {altanta} in city.
  EXPECT_EQ(corpus.tuple_a(0).size(), 3u);
  EXPECT_EQ(corpus.tuple_a(2).size(), 0u);  // Empty tuple.

  ConfigView both = corpus.MakeConfigView(0b11);
  EXPECT_EQ(both.a(0).size(), 3u);
  ConfigView name_only = corpus.MakeConfigView(0b01);
  EXPECT_EQ(name_only.a(0).size(), 2u);
  ConfigView city_only = corpus.MakeConfigView(0b10);
  EXPECT_EQ(city_only.a(0).size(), 1u);
  EXPECT_EQ(city_only.a(1).size(), 2u);  // new, york.

  // Token arrays must be sorted by global rank.
  for (size_t row = 0; row < both.rows_a(); ++row) {
    TokenSpan tokens = both.a(row);
    EXPECT_TRUE(std::is_sorted(tokens.begin(), tokens.end()));
  }
  // Dense-index sizing contract: every rank is below rank_limit().
  EXPECT_EQ(both.rank_limit(), corpus.dictionary().size());
  for (size_t row = 0; row < both.rows_a(); ++row) {
    for (uint32_t rank : both.a(row)) EXPECT_LT(rank, both.rank_limit());
  }
  for (size_t row = 0; row < both.rows_b(); ++row) {
    for (uint32_t rank : both.b(row)) EXPECT_LT(rank, both.rank_limit());
  }
}

TEST(CorpusTest, TokenSharedAcrossAttributesHasCombinedMask) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"Madison Smith", "Madison"});
  b.AddRow({"x", "y"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  // "madison" appears in both attributes -> one entry with mask 0b11.
  const TupleTokens tuple = corpus.tuple_a(0);
  ASSERT_EQ(tuple.size(), 2u);  // {madison, smith}.
  bool found_combined = false;
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.masks[i] == 0b11) found_combined = true;
  }
  EXPECT_TRUE(found_combined);
  // Its config length under each single attribute counts madison once.
  EXPECT_EQ(SsjCorpus::ConfigLength(tuple, 0b01), 2u);  // madison, smith.
  EXPECT_EQ(SsjCorpus::ConfigLength(tuple, 0b10), 1u);  // madison.
}

// The top-k join counts a probe's shared prefix with a per-event rank stamp,
// which is exact only if no span repeats a rank: every ConfigView span must
// be strictly increasing. Covers zero-copy (fully covered) rows,
// materialized rows of single-attribute configs, and views over corpora
// patched by ApplyDelta, on cells that repeat words within and across
// attributes.
TEST(CorpusTest, ConfigViewSpansStrictlyIncrease) {
  auto expect_strict = [](const ConfigView& view, const std::string& label) {
    for (size_t side = 0; side < 2; ++side) {
      const size_t rows = side == 0 ? view.rows_a() : view.rows_b();
      for (size_t row = 0; row < rows; ++row) {
        const TokenSpan tokens = side == 0 ? view.a(row) : view.b(row);
        for (size_t i = 1; i < tokens.size(); ++i) {
          ASSERT_LT(tokens[i - 1], tokens[i])
              << label << " side " << side << " row " << row;
        }
      }
    }
  };
  Rng rng(2024);
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  auto random_cell = [&](size_t vocabulary) {
    std::string text;
    const size_t n = rng.NextBelow(6);
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += 'w' + std::to_string(rng.NextZipf(vocabulary, 0.8));
    }
    return text;
  };
  for (size_t row = 0; row < 60; ++row) {
    a.AddRow({random_cell(25), random_cell(10)});
    b.AddRow({random_cell(25), random_cell(10)});
  }
  auto check_corpus = [&](const SsjCorpus& corpus, const std::string& label) {
    size_t materialized = 0;
    for (ConfigMask mask : {ConfigMask{0b11}, ConfigMask{0b01},
                            ConfigMask{0b10}}) {
      const ConfigView view = corpus.MakeConfigView(mask);
      materialized += view.materialized_rows();
      expect_strict(view, label + " mask " + std::to_string(mask));
    }
    EXPECT_GT(materialized, 0u) << label;
  };
  std::optional<SsjCorpus> corpus = SsjCorpus::Build(a, b, {0, 1});
  check_corpus(*corpus, "built");
  for (size_t generation = 1; generation <= 4; ++generation) {
    TableDelta delta;
    delta.side = static_cast<uint8_t>(generation % 2);
    Table& target = delta.side == 0 ? a : b;
    const size_t base_rows = target.num_rows();
    for (uint32_t row = static_cast<uint32_t>(generation); row < base_rows;
         row += 9) {
      // Fresh tokens, repeated words, and a word shared by both cells.
      delta.mutated.push_back(
          {row,
           {"fresh" + std::to_string(generation) + " w1 w1 " +
                random_cell(25),
            "w1 " + random_cell(10)}});
    }
    delta.appended.push_back({"w2 w2 appended", "w2"});
    ASSERT_TRUE(ApplyDeltaToTable(target, delta).ok());
    Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    corpus = SsjCorpus::ApplyDelta(*corpus, a, b, {0, 1}, *rows);
    ASSERT_TRUE(corpus.has_value()) << "generation " << generation;
    check_corpus(*corpus, "patched generation " + std::to_string(generation));
  }
}

// --------------------------------------------------------------------------
// Top-k joins vs brute force.
// --------------------------------------------------------------------------

// Random word-soup tables for property tests.
std::pair<Table, Table> RandomTables(Rng& rng, size_t rows_a, size_t rows_b,
                                     size_t vocabulary, size_t max_tokens) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    size_t n = rng.NextBelow(max_tokens + 1);
    std::string text;
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += 'w';
      text += std::to_string(rng.NextZipf(vocabulary, 0.8));
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows_a; ++i) make_row(a);
  for (size_t i = 0; i < rows_b; ++i) make_row(b);
  return {std::move(a), std::move(b)};
}

// Checks that `got` is a valid top-k: same score multiset as brute force and
// all scores correct.
void ExpectTopKEquivalent(const TopKList& got, const TopKList& expected,
                          const ConfigView& view, SetMeasure measure,
                          const std::string& label) {
  std::vector<ScoredPair> got_sorted = got.SortedDescending();
  std::vector<ScoredPair> expected_sorted = expected.SortedDescending();
  ASSERT_EQ(got_sorted.size(), expected_sorted.size()) << label;
  DirectPairScorer scorer(&view, measure);
  for (size_t i = 0; i < got_sorted.size(); ++i) {
    EXPECT_NEAR(got_sorted[i].score, expected_sorted[i].score, 1e-12)
        << label << " rank " << i;
    // Claimed score must equal the true score of the claimed pair.
    EXPECT_NEAR(got_sorted[i].score,
                scorer.Score(PairRowA(got_sorted[i].pair),
                             PairRowB(got_sorted[i].pair)),
                1e-12)
        << label << " rank " << i;
  }
}

class TopKJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKJoinPropertyTest, MatchesBruteForceAcrossMeasuresAndK) {
  Rng rng(GetParam());
  auto [a, b] = RandomTables(rng, 60, 70, 40, 8);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  for (SetMeasure measure : {SetMeasure::kJaccard, SetMeasure::kCosine,
                             SetMeasure::kDice,
                             SetMeasure::kOverlapCoefficient}) {
    for (size_t k : {1u, 5u, 25u, 200u}) {
      TopKJoinOptions options;
      options.k = k;
      options.measure = measure;
      TopKList got = RunTopKJoin(view, options);
      TopKList expected = BruteForceTopK(view, k, measure);
      ExpectTopKEquivalent(got, expected, view, measure,
                           std::string(SetMeasureName(measure)) + " k=" +
                               std::to_string(k));
    }
  }
}

TEST_P(TopKJoinPropertyTest, ExclusionRemovesBlockedPairs) {
  Rng rng(GetParam() + 500);
  auto [a, b] = RandomTables(rng, 50, 50, 30, 6);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  // Exclude the unblocked top-10 pairs, then re-join.
  TopKJoinOptions options;
  options.k = 10;
  TopKList unrestricted = RunTopKJoin(view, options);
  CandidateSet blocked;
  for (const ScoredPair& entry : unrestricted.Entries()) {
    blocked.Add(entry.pair);
  }
  options.exclude = &blocked;
  options.k = 20;
  TopKList restricted = RunTopKJoin(view, options);
  for (const ScoredPair& entry : restricted.Entries()) {
    EXPECT_FALSE(blocked.Contains(entry.pair));
  }
  TopKList expected = BruteForceTopK(view, 20, SetMeasure::kJaccard, &blocked);
  ExpectTopKEquivalent(restricted, expected, view, SetMeasure::kJaccard,
                       "with exclusion");
}

TEST_P(TopKJoinPropertyTest, SeedingDoesNotChangeResult) {
  Rng rng(GetParam() + 900);
  auto [a, b] = RandomTables(rng, 50, 60, 30, 6);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  TopKJoinOptions options;
  options.k = 30;

  TopKList expected = RunTopKJoin(view, options);
  // Seed with correct scores for some arbitrary pairs (as parent reuse
  // does after re-adjustment).
  DirectPairScorer scorer(&view, options.measure);
  std::vector<ScoredPair> seed;
  for (RowId i = 0; i < 10 && i < view.rows_a(); ++i) {
    RowId j = i % static_cast<RowId>(view.rows_b());
    if (view.a(i).empty() || view.b(j).empty()) continue;
    seed.push_back(ScoredPair{MakePairId(i, j), scorer.Score(i, j)});
  }
  TopKList seeded = RunTopKJoin(view, options, nullptr, &seed);
  ExpectTopKEquivalent(seeded, expected, view, options.measure, "seeded");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKJoinPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(TopKJoinTest, QOneIsTopKJoinAndHigherQIsSubsetLike) {
  Rng rng(7);
  auto [a, b] = RandomTables(rng, 80, 80, 50, 8);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  TopKJoinOptions options;
  options.k = 50;

  TopKJoinStats stats_q1;
  options.q = 1;
  TopKList q1 = RunTopKJoin(view, options, nullptr, nullptr, &stats_q1);
  TopKList brute = BruteForceTopK(view, options.k, options.measure);
  ExpectTopKEquivalent(q1, brute, view, options.measure, "q=1");

  TopKJoinStats stats_q3;
  options.q = 3;
  TopKList q3 = RunTopKJoin(view, options, nullptr, nullptr, &stats_q3);
  // QJoin's point: fewer full score computations.
  EXPECT_LE(stats_q3.pairs_scored, stats_q1.pairs_scored);
  // Every returned pair's score is still exact.
  DirectPairScorer scorer(&view, options.measure);
  for (const ScoredPair& entry : q3.Entries()) {
    EXPECT_NEAR(entry.score,
                scorer.Score(PairRowA(entry.pair), PairRowB(entry.pair)),
                1e-12);
  }
}

TEST(TopKJoinTest, EmptyInputs) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({""});
  b.AddRow({"something here"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  TopKJoinOptions options;
  options.k = 5;
  TopKList result = RunTopKJoin(view, options);
  EXPECT_EQ(result.size(), 0u);
}

TEST(TopKJoinTest, IdenticalStringsScoreOne) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"alpha beta gamma"});
  b.AddRow({"alpha beta gamma"});
  b.AddRow({"delta epsilon"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  TopKJoinOptions options;
  options.k = 1;
  TopKList result = RunTopKJoin(view, options);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result.Entries()[0].score, 1.0);
  EXPECT_EQ(result.Entries()[0].pair, MakePairId(0, 0));
}

TEST(TopKJoinTest, StatsArePopulated) {
  Rng rng(3);
  auto [a, b] = RandomTables(rng, 40, 40, 20, 6);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  TopKJoinOptions options;
  options.k = 10;
  TopKJoinStats stats;
  RunTopKJoin(view, options, nullptr, nullptr, &stats);
  EXPECT_GT(stats.events_popped, 0u);
  EXPECT_GT(stats.pairs_scored, 0u);
  EXPECT_GT(stats.tokens_indexed, 0u);
}

}  // namespace
}  // namespace mc
