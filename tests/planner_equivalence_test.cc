// Randomized planner-vs-direct equivalence suite for the cost-based join
// planner (src/ssj/join_planner.h). The planner only chooses *how* a join
// runs — q and the shard count — so for every choice it can make,
// executing the chosen plan must be bit-identical (pairs and raw score
// bits) to executing the same plan directly without the planner's
// involvement, across seeded corpora, all four set measures, and a range of
// k values. Plan decisions themselves must be deterministic for a fixed
// MC_PLANNER_SEED / PlannerOptions::seed. Also pins a satellite regression:
// corpus planner statistics are invalidated by SsjCorpus::ApplyDelta (the
// generation bump). The branch-and-bound q ladder must pick the plan an
// exhaustive ladder picks, and neither the joint executor's reuse of a
// whole-table probe as the root join nor a cached plan's replay may change
// any list or counter. Run under ASan by the ci.sh `planner` stage.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "paper_blockers.h"
#include "blocking/candidate_set.h"
#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "ssj/topk_join.h"
#include "table/profile.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "table/tokenized_table.h"
#include "util/random.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomTables(Rng& rng, size_t rows) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    std::string text;
    size_t n = 3 + rng.NextBelow(8);
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += 'w';
      text += std::to_string(rng.NextZipf(60, 0.9));
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows; ++i) {
    make_row(a);
    make_row(b);
  }
  return {std::move(a), std::move(b)};
}

// Bit-exact list comparison: pair identity AND raw score bits must agree at
// every rank. This is strictly stronger than the boundary-tie-tolerant
// check of ssj_equivalence_test — the planner contract is bit-identity to
// running its chosen plan directly, not merely score equivalence.
void ExpectBitIdentical(const TopKList& got, const TopKList& want,
                        const std::string& label) {
  std::vector<ScoredPair> g = got.SortedDescending();
  std::vector<ScoredPair> w = want.SortedDescending();
  ASSERT_EQ(g.size(), w.size()) << label;
  for (size_t r = 0; r < g.size(); ++r) {
    EXPECT_EQ(g[r].pair, w[r].pair) << label << " rank " << r;
    EXPECT_EQ(g[r].score, w[r].score) << label << " rank " << r;
  }
}

struct CaseName {
  template <typename ParamType>
  std::string operator()(
      const ::testing::TestParamInfo<ParamType>& info) const {
    static const char* kMeasureNames[] = {"jaccard", "cosine", "dice",
                                          "overlap"};
    return std::string(kMeasureNames[static_cast<int>(
               std::get<0>(info.param))]) +
           "_k" + std::to_string(std::get<1>(info.param));
  }
};

class PlannerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SetMeasure, size_t>> {
 protected:
  SetMeasure measure() const { return std::get<0>(GetParam()); }
  size_t k() const { return std::get<1>(GetParam()); }
};

// Executing the planner's chosen plan (q, shards) must be bit-identical to
// the single-shard run of the same q: the shard hint moves work, never
// output.
TEST_P(PlannerEquivalenceTest, PlannedExecutionMatchesDirectRun) {
  Rng rng(7000 + static_cast<uint64_t>(measure()) * 100 + k());
  auto [a, b] = RandomTables(rng, 140);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions planner_options;
  planner_options.k = k();
  planner_options.measure = measure();
  planner_options.seed = 42;
  JoinPlan plan = PlanTopKJoin(corpus, view, planner_options);
  ASSERT_FALSE(plan.truncated);
  ASSERT_GE(plan.q, 1u);
  ASSERT_LE(plan.q, 4u);

  TopKJoinOptions planned;
  planned.k = k();
  planned.measure = measure();
  planned.q = plan.q;
  planned.shards = plan.shards;
  TopKJoinOptions sequential = planned;
  sequential.shards = 1;
  ExpectBitIdentical(RunTopKJoin(view, planned),
                     RunTopKJoin(view, sequential), "planned vs sequential");
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresKValues, PlannerEquivalenceTest,
    ::testing::Combine(::testing::Values(SetMeasure::kJaccard,
                                         SetMeasure::kCosine,
                                         SetMeasure::kDice,
                                         SetMeasure::kOverlapCoefficient),
                       ::testing::Values(size_t{10}, size_t{40})),
    CaseName());

// Plans are a pure function of (corpus generation, view, options): the same
// seed must reproduce every decision and every piece of evidence.
TEST(PlannerDeterminismTest, SameSeedSamePlan) {
  Rng rng(9100);
  auto [a, b] = RandomTables(rng, 130);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions options;
  options.k = 25;
  options.seed = 1234;
  const JoinPlan first = PlanTopKJoin(corpus, view, options);
  const JoinPlan second = PlanTopKJoin(corpus, view, options);
  EXPECT_EQ(first.q, second.q);
  EXPECT_EQ(first.shards, second.shards);
  EXPECT_EQ(first.sample_rate, second.sample_rate);
  EXPECT_EQ(first.sample_rows, second.sample_rows);
  EXPECT_EQ(first.seed, second.seed);
  EXPECT_EQ(first.est_events, second.est_events);
  EXPECT_EQ(first.est_scored, second.est_scored);
  ASSERT_EQ(first.cost_per_q.size(), second.cost_per_q.size());
  for (size_t i = 0; i < first.cost_per_q.size(); ++i) {
    EXPECT_EQ(first.cost_per_q[i], second.cost_per_q[i]) << "q " << i + 1;
  }
}

TEST(PlannerDeterminismTest, SeedResolvesFromEnvironment) {
  Rng rng(9200);
  auto [a, b] = RandomTables(rng, 100);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions options;
  options.k = 20;
  options.seed = 0;  // Defer to the environment.
  ASSERT_EQ(setenv("MC_PLANNER_SEED", "98765", /*overwrite=*/1), 0);
  EXPECT_EQ(PlannerSeedFromEnv(), 98765u);
  const JoinPlan env_plan = PlanTopKJoin(corpus, view, options);
  EXPECT_EQ(env_plan.seed, 98765u);
  ASSERT_EQ(unsetenv("MC_PLANNER_SEED"), 0);
  const JoinPlan default_plan = PlanTopKJoin(corpus, view, options);
  EXPECT_EQ(default_plan.seed, PlannerSeedFromEnv());
  EXPECT_NE(default_plan.seed, 0u);
  // An explicit options seed beats the environment.
  ASSERT_EQ(setenv("MC_PLANNER_SEED", "11111", /*overwrite=*/1), 0);
  options.seed = 5;
  EXPECT_EQ(PlanTopKJoin(corpus, view, options).seed, 5u);
  ASSERT_EQ(unsetenv("MC_PLANNER_SEED"), 0);

  // Only a full unsigned decimal string in range is a seed; anything else
  // falls back to the default rather than to a prefix, a wrapped negative,
  // or a saturated overflow.
  const uint64_t fallback = PlannerSeedFromEnv();
  const std::pair<const char*, uint64_t> cases[] = {
      {"0", 0u},
      {"007", 7u},
      {"18446744073709551615", 18446744073709551615ull},
      {"18446744073709551616", fallback},
      {"99999999999999999999999", fallback},
      {"12abc", fallback},
      {"-1", fallback},
      {"+5", fallback},
      {" 5", fallback},
      {"5 ", fallback},
      {"0x10", fallback},
      {"1e3", fallback},
      {"abc", fallback},
  };
  for (const auto& [text, want] : cases) {
    ASSERT_EQ(setenv("MC_PLANNER_SEED", text, /*overwrite=*/1), 0);
    EXPECT_EQ(PlannerSeedFromEnv(), want) << "MC_PLANNER_SEED=\"" << text
                                          << "\"";
  }
  ASSERT_EQ(unsetenv("MC_PLANNER_SEED"), 0);
}

// The shard hint is the one plan knob that only moves work: on a paper
// dataset, the planned q joined at 4 shards must give the single-shard
// list bit for bit.
TEST(PlannerDeterminismTest, ShardedRunOfThePlannedQIsBitIdentical) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), 53);
  SsjCorpus corpus = SsjCorpus::Build(dataset.table_a, dataset.table_b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions planner;
  planner.k = 20;
  planner.measure = SetMeasure::kJaccard;
  const JoinPlan plan = PlanTopKJoin(corpus, view, planner);
  ASSERT_FALSE(plan.truncated);

  TopKJoinOptions run;
  run.k = planner.k;
  run.measure = planner.measure;
  run.q = plan.q;
  TopKJoinOptions sharded = run;
  sharded.shards = 4;
  ExpectBitIdentical(RunTopKJoin(view, sharded), RunTopKJoin(view, run),
                     "4 shards vs 1");
}

// ---------------------------------------------------------------------------
// Branch-and-bound q ladder. PlanTopKJoin probes q in descending order and
// abandons a probe once its running cost passes the best complete cost so
// far; the reference below runs every q to completion and takes the argmin
// (ties to the smaller q). The two must agree on the plan.

// The documented cost model: events extrapolate by the sample rate N,
// probes and scored pairs by N^2, under the pinned default weights (events
// 1.0, probes 0.5, scoring 4.0 + 0.25 per mean token).
double DocumentedCost(const TopKJoinStats& s, double rate, double mean_len) {
  const double events = static_cast<double>(s.events_popped);
  const double probes = static_cast<double>(s.pairs_pruned + s.pairs_scored);
  const double scored = static_cast<double>(s.pairs_scored);
  return rate * events * 1.0 +
         rate * rate * (probes * 0.5 + scored * (4.0 + 0.25 * mean_len));
}

struct ReferenceLadder {
  size_t q = 0;
  std::vector<double> cost_per_q;
  TopKJoinStats winner;
};

// Exhaustive ladder with the planner's sampling: rate max(1, rows_a / 256),
// offset seed mod rate on both sides, probe size ceil(k / rate), and q
// capped where fewer than half the table-A rows have q tokens.
ReferenceLadder RunReferenceLadder(const SsjCorpus& corpus,
                                   const ConfigView& view,
                                   const PlannerOptions& options) {
  const CorpusPlannerStats& stats = corpus.PlannerStats();
  size_t max_q = std::min<size_t>(options.max_q, 4);
  while (max_q > 1 && stats.q_coverage_a[max_q - 1] < 0.5) --max_q;
  const size_t rows_a = view.rows_a();
  const size_t rate =
      std::min(std::max<size_t>(1, rows_a / 256), rows_a);
  const size_t offset = options.seed % rate;
  const size_t b_rate = std::min(rate, view.rows_b());
  const double mean_len = (stats.mean_tokens_a + stats.mean_tokens_b) / 2.0;

  ReferenceLadder ladder;
  std::vector<TopKJoinStats> probe_stats(max_q);
  for (size_t q = 1; q <= max_q; ++q) {
    TopKJoinOptions probe;
    probe.k = (options.k + rate - 1) / rate;
    probe.measure = options.measure;
    probe.q = q;
    probe.exclude = options.exclude;
    RunTopKJoinShard(view, probe, offset, rate, nullptr, nullptr,
                     &probe_stats[q - 1], offset % b_rate, b_rate);
    ladder.cost_per_q.push_back(DocumentedCost(
        probe_stats[q - 1], static_cast<double>(rate), mean_len));
  }
  ladder.q = 1;
  for (size_t q = 2; q <= max_q; ++q) {
    if (ladder.cost_per_q[q - 1] < ladder.cost_per_q[ladder.q - 1]) {
      ladder.q = q;
    }
  }
  ladder.winner = probe_stats[ladder.q - 1];
  return ladder;
}

// Checks a plan against the exhaustive ladder: same q and volumes, exact
// costs wherever the probe completed, and for every abandoned q a recorded
// cost that is a lower bound on its complete cost and strictly above the
// chosen q's.
void ExpectMatchesReference(const JoinPlan& plan,
                            const ReferenceLadder& reference,
                            const std::string& label) {
  ASSERT_FALSE(plan.truncated) << label;
  EXPECT_EQ(plan.q, reference.q) << label;
  ASSERT_EQ(plan.cost_per_q.size(), reference.cost_per_q.size()) << label;
  const double rate = static_cast<double>(plan.sample_rate);
  EXPECT_EQ(plan.est_events,
            static_cast<uint64_t>(
                rate * static_cast<double>(reference.winner.events_popped)))
      << label;
  EXPECT_EQ(plan.est_scored,
            static_cast<uint64_t>(rate * rate *
                                  static_cast<double>(
                                      reference.winner.pairs_scored)))
      << label;
  EXPECT_EQ((plan.abandoned_q_mask >> (plan.q - 1)) & 1u, 0u)
      << label << ": the chosen q ran to completion";
  for (size_t q = 1; q <= plan.cost_per_q.size(); ++q) {
    const double got = plan.cost_per_q[q - 1];
    const double want = reference.cost_per_q[q - 1];
    if ((plan.abandoned_q_mask >> (q - 1)) & 1u) {
      EXPECT_LE(got, want) << label << " q " << q;
      EXPECT_GT(got, reference.cost_per_q[reference.q - 1])
          << label << " q " << q;
    } else {
      EXPECT_EQ(got, want) << label << " q " << q;
    }
  }
}

TEST(PlannerLadderTest, BranchAndBoundMatchesExhaustiveLadder) {
  const SetMeasure measures[] = {SetMeasure::kJaccard, SetMeasure::kCosine,
                                 SetMeasure::kDice,
                                 SetMeasure::kOverlapCoefficient};
  size_t abandoned = 0;
  size_t plans = 0;
  // 150 rows: the sample is the whole table (rate 1); 600 rows: rate 2.
  for (size_t rows : {size_t{150}, size_t{600}}) {
    Rng rng(9400 + rows);
    auto [a, b] = RandomTables(rng, rows);
    SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
    ConfigView view = corpus.MakeConfigView(0b1);
    // Exclude a slice of the pair space so C moves the counters too.
    CandidateSet exclude;
    for (RowId row = 0; row < rows; row += 3) {
      exclude.Add(MakePairId(row, row));
    }
    for (SetMeasure measure : measures) {
      for (size_t k : {size_t{10}, size_t{60}}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
          PlannerOptions options;
          options.k = k;
          options.measure = measure;
          options.seed = seed;
          options.exclude = &exclude;
          const JoinPlan plan = PlanTopKJoin(corpus, view, options);
          const std::string label =
              "rows " + std::to_string(rows) + " measure " +
              std::to_string(static_cast<int>(measure)) + " k " +
              std::to_string(k) + " seed " + std::to_string(seed);
          ExpectMatchesReference(plan, RunReferenceLadder(corpus, view,
                                                          options),
                                 label);
          abandoned +=
              static_cast<size_t>(std::popcount(plan.abandoned_q_mask));
          ++plans;
        }
      }
    }
  }
  EXPECT_GT(abandoned, 0u) << "no probe was ever abandoned over " << plans
                           << " plans: the bound was never exercised";
}

// Constructed tie: the two tables share no token, so no pair is ever
// probed and every q drains the same event stream — all four costs are
// equal. The ascending ladder's rule picks the smallest q, and the bound
// must not abandon a probe whose cost only *equals* the budget. The stream
// holds exactly one poll period of events (64 rows x 8 tokens x 2 sides),
// so the last event lands on a poll point whose running cost equals the
// budget.
TEST(PlannerLadderTest, CostTieGoesToSmallestQ) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  for (size_t row = 0; row < 64; ++row) {
    std::string text_a, text_b;
    for (size_t t = 0; t < 8; ++t) {
      text_a += " a" + std::to_string(row) + "x" + std::to_string(t);
      text_b += " b" + std::to_string(row) + "y" + std::to_string(t);
    }
    a.AddRow({text_a});
    b.AddRow({text_b});
  }
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  PlannerOptions options;
  options.k = 5;
  options.seed = 9;
  const JoinPlan plan = PlanTopKJoin(corpus, view, options);
  ASSERT_EQ(plan.sample_rate, 1u);
  ASSERT_EQ(plan.est_events, TopKJoinOptions{}.poll_period);
  ASSERT_EQ(plan.cost_per_q.size(), 4u);
  for (size_t q = 2; q <= 4; ++q) {
    ASSERT_EQ(plan.cost_per_q[q - 1], plan.cost_per_q[0]) << "q " << q;
  }
  EXPECT_EQ(plan.q, 1u);
  EXPECT_EQ(plan.abandoned_q_mask, 0u);
  ExpectMatchesReference(plan, RunReferenceLadder(corpus, view, options),
                         "tie");
}

void ExpectSameStats(const TopKJoinStats& got, const TopKJoinStats& want,
                     const std::string& label) {
  EXPECT_EQ(got.events_popped, want.events_popped) << label;
  EXPECT_EQ(got.pairs_discovered, want.pairs_discovered) << label;
  EXPECT_EQ(got.pairs_scored, want.pairs_scored) << label;
  EXPECT_EQ(got.pairs_pruned, want.pairs_pruned) << label;
  EXPECT_EQ(got.tokens_indexed, want.tokens_indexed) << label;
  EXPECT_EQ(got.overlap_increments, want.overlap_increments) << label;
  EXPECT_EQ(got.truncated, want.truncated) << label;
  EXPECT_EQ(got.abandoned, want.abandoned) << label;
}

// The engine hook: a budget that never fires leaves the list and every
// counter bit-identical; a budget that fires stops the join with
// `abandoned` (not `truncated`) and partial counters whose cost is above
// the budget and at most the complete join's.
TEST(PlannerLadderTest, EngineCostBudget) {
  Rng rng(9500);
  auto [a, b] = RandomTables(rng, 200);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  const JoinCostModel model{1.0, 6.0};
  auto cost = [&](const TopKJoinStats& s) {
    return model.Cost(s.events_popped, s.pairs_pruned + s.pairs_scored,
                      s.pairs_scored);
  };

  for (size_t q : {size_t{1}, size_t{3}}) {
    TopKJoinOptions options;
    options.k = 20;
    options.q = q;
    options.poll_period = 1;
    TopKJoinStats full_stats;
    const TopKList full =
        RunTopKJoinShard(view, options, 0, 1, nullptr, nullptr, &full_stats);
    const double full_cost = cost(full_stats);
    const std::string label = "q " + std::to_string(q);

    // Budgets that never fire: far above, and exactly at, the final cost
    // (abandoning needs a cost strictly above the budget).
    for (double budget : {1e300, full_cost}) {
      TopKJoinOptions budgeted = options;
      budgeted.cost_model = &model;
      budgeted.cost_budget = budget;
      TopKJoinStats stats;
      const TopKList list =
          RunTopKJoinShard(view, budgeted, 0, 1, nullptr, nullptr, &stats);
      ExpectBitIdentical(list, full, label + " inert budget");
      ExpectSameStats(stats, full_stats, label + " inert budget");
      // The single-shard RunTopKJoin entry point honors it the same way.
      TopKJoinStats joined_stats;
      ExpectBitIdentical(
          RunTopKJoin(view, budgeted, nullptr, nullptr, &joined_stats), full,
          label + " RunTopKJoin inert budget");
      ExpectSameStats(joined_stats, full_stats,
                      label + " RunTopKJoin inert budget");
    }

    // A budget that fires half way.
    TopKJoinOptions budgeted = options;
    budgeted.cost_model = &model;
    budgeted.cost_budget = full_cost / 2;
    TopKJoinStats stats;
    RunTopKJoinShard(view, budgeted, 0, 1, nullptr, nullptr, &stats);
    EXPECT_TRUE(stats.abandoned) << label;
    EXPECT_FALSE(stats.truncated) << label;
    EXPECT_LT(stats.events_popped, full_stats.events_popped) << label;
    EXPECT_GT(cost(stats), budgeted.cost_budget) << label;
    EXPECT_LE(cost(stats), full_cost) << label;
  }
}

// Satellite regression: planner statistics are cached per corpus
// *generation* — ApplyDelta yields a corpus whose stats recompute over the
// patched arenas and match a from-scratch rebuild field for field.
TEST(PlannerStatsDeltaTest, StatsInvalidatedAndRecomputedAfterApplyDelta) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), 47);
  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const std::vector<size_t> columns = attributes->columns;

  Table table_a = dataset.table_a;
  Table table_b = dataset.table_b;
  SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, columns);
  ASSERT_EQ(corpus.generation(), 1u);
  // Populate the cache on the base generation, so a stale-serving bug
  // (returning generation-1 stats from the patched corpus) would be caught.
  const CorpusPlannerStats base_stats = corpus.PlannerStats();
  EXPECT_EQ(base_stats.generation, 1u);

  // One mutate + one append against table A.
  TableDelta delta;
  delta.side = 0;
  TableDelta::RowEdit edit;
  edit.row = 0;
  for (size_t c = 0; c < table_a.num_columns(); ++c) {
    edit.values.push_back(std::string(table_a.Value(0, c)));
  }
  edit.values[0] += " planner delta regression tokens";
  delta.mutated.push_back(std::move(edit));
  std::vector<std::string> appended;
  for (size_t c = 0; c < table_a.num_columns(); ++c) {
    appended.push_back(std::string(table_a.Value(1, c)));
  }
  appended[0] += " appended planner row";
  delta.appended.push_back(std::move(appended));

  const size_t base_rows = table_a.num_rows();
  ASSERT_TRUE(ApplyDeltaToTable(table_a, delta).ok());
  Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::optional<SsjCorpus> patched =
      SsjCorpus::ApplyDelta(corpus, table_a, table_b, columns, *rows);
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(patched->generation(), 2u);

  const CorpusPlannerStats patched_stats = patched->PlannerStats();
  EXPECT_EQ(patched_stats.generation, 2u);
  const SsjCorpus rebuilt = SsjCorpus::Build(table_a, table_b, columns);
  const CorpusPlannerStats rebuilt_stats = rebuilt.PlannerStats();
  // Patching may keep dead dictionary entries a rebuild would not mint, so
  // compare live-token counts rather than raw dictionary sizes.
  EXPECT_EQ(patched_stats.dictionary_tokens - patched_stats.dead_tokens,
            rebuilt_stats.dictionary_tokens - rebuilt_stats.dead_tokens);
  EXPECT_DOUBLE_EQ(patched_stats.mean_tokens_a, rebuilt_stats.mean_tokens_a);
  EXPECT_DOUBLE_EQ(patched_stats.mean_tokens_b, rebuilt_stats.mean_tokens_b);
  EXPECT_EQ(patched_stats.max_tokens_a, rebuilt_stats.max_tokens_a);
  EXPECT_EQ(patched_stats.max_tokens_b, rebuilt_stats.max_tokens_b);
  EXPECT_DOUBLE_EQ(patched_stats.tail_mass, rebuilt_stats.tail_mass);
  for (size_t q = 0; q < 4; ++q) {
    EXPECT_DOUBLE_EQ(patched_stats.q_coverage_a[q],
                     rebuilt_stats.q_coverage_a[q])
        << "q " << q + 1;
    EXPECT_DOUBLE_EQ(patched_stats.required_overlap_frac[q],
                     rebuilt_stats.required_overlap_frac[q])
        << "measure " << q;
  }
  // The appended tokens changed table A's length profile, so the patched
  // stats must differ from the (cached, stale) base stats.
  EXPECT_NE(patched_stats.mean_tokens_a, base_stats.mean_tokens_a);
}

void ExpectSameLists(const JointResult& got, const JointResult& want,
                     const std::string& label) {
  ASSERT_EQ(got.per_config.size(), want.per_config.size()) << label;
  for (size_t i = 0; i < want.per_config.size(); ++i) {
    const auto& g = got.per_config[i].topk;
    const auto& w = want.per_config[i].topk;
    ASSERT_EQ(g.size(), w.size()) << label << " config " << i;
    for (size_t e = 0; e < w.size(); ++e) {
      EXPECT_EQ(g[e].pair, w[e].pair) << label << " config " << i << " entry "
                                      << e;
      EXPECT_EQ(g[e].score, w[e].score) << label << " config " << i
                                        << " entry " << e;
    }
  }
}

// Joint executor: a q = 0 run under the planner must produce per-config
// lists bit-identical to a run with the planner's chosen q fixed up front,
// and must report a full set of plan decisions.
TEST(JointPlannerTest, PlannerRunMatchesExplicitQRun) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), 51);
  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const ConfigTree tree = GenerateConfigTree(*attributes, config_options);
  SsjCorpus corpus =
      SsjCorpus::Build(dataset.table_a, dataset.table_b, attributes->columns);

  JointOptions planned;
  planned.k = 25;
  planned.q = 0;
  planned.planner_seed = 77;
  planned.num_threads = 2;
  const JointResult with_planner = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(with_planner.task_error.ok())
      << with_planner.task_error.ToString();
  ASSERT_TRUE(with_planner.planner_used);
  EXPECT_EQ(with_planner.q_used, with_planner.plan.q);
  EXPECT_EQ(with_planner.plan_decisions.size(),
            with_planner.per_config.size());
  for (size_t i = 0; i < with_planner.plan_decisions.size(); ++i) {
    EXPECT_EQ(with_planner.plan_decisions[i].config,
              with_planner.per_config[i].config);
    EXPECT_EQ(with_planner.plan_decisions[i].q, with_planner.plan.q);
    EXPECT_EQ(with_planner.plan_decisions[i].shards,
              with_planner.per_config[i].shards_used);
    EXPECT_EQ(with_planner.plan_decisions[i].seeded_from_parent,
              with_planner.per_config[i].seeded_from_parent);
  }

  JointOptions fixed = planned;
  fixed.q = with_planner.plan.q;
  const JointResult direct = RunJointTopKJoins(corpus, tree, fixed);
  ASSERT_TRUE(direct.task_error.ok()) << direct.task_error.ToString();
  EXPECT_FALSE(direct.planner_used);
  ExpectSameLists(with_planner, direct, "planner vs fixed q");

  // Same seed, same plan — determinism end to end through the executor.
  const JointResult replay = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(replay.planner_used);
  EXPECT_EQ(replay.plan.q, with_planner.plan.q);
  EXPECT_EQ(replay.plan.shards, with_planner.plan.shards);
}


// At sample rate 1 a fresh plan's winning probe is the root join, and the
// executor reuses it instead of joining again. The per-config lists must
// equal both a cached-plan run (which executes the root join) and a
// fixed-q run; the reused root must report the probe's counters and a
// single-shard decision.
TEST(JointPlannerTest, WholeTableProbeIsTheRootJoin) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), 53);
  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const ConfigTree tree = GenerateConfigTree(*attributes, config_options);
  ASSERT_GT(tree.size(), 1u);
  SsjCorpus corpus =
      SsjCorpus::Build(dataset.table_a, dataset.table_b, attributes->columns);
  CandidateSet exclude;
  for (RowId row = 0; row < dataset.table_a.num_rows(); row += 4) {
    exclude.Add(MakePairId(row, row));
  }

  for (size_t threads : {size_t{1}, size_t{3}}) {
    const std::string label = "threads " + std::to_string(threads);
    JointOptions planned;
    planned.k = 20;
    planned.q = 0;
    planned.planner_seed = 31;
    planned.num_threads = threads;
    planned.exclude = &exclude;
    planned.reuse_min_avg_tokens = 0.0;  // Overlap cache on.
    const JointResult fresh = RunJointTopKJoins(corpus, tree, planned);
    ASSERT_TRUE(fresh.task_error.ok()) << fresh.task_error.ToString();
    ASSERT_FALSE(fresh.truncated) << label;
    ASSERT_EQ(fresh.plan.sample_rate, 1u) << label;
    const ConfigJoinResult& root = fresh.per_config[0];
    EXPECT_TRUE(root.from_planner_probe) << label;
    EXPECT_EQ(root.shards_used, 1u) << label;
    // At rate 1 the extrapolation is the identity: the root's counters are
    // the winning probe's.
    EXPECT_EQ(root.stats.events_popped, fresh.plan.est_events) << label;
    EXPECT_EQ(root.stats.pairs_scored, fresh.plan.est_scored) << label;
    EXPECT_EQ(fresh.plan_decisions[0].shards, 1u) << label;
    for (size_t i = 1; i < fresh.per_config.size(); ++i) {
      EXPECT_FALSE(fresh.per_config[i].from_planner_probe) << label;
    }

    JointOptions cached = planned;
    cached.cached_plan = &fresh.plan;
    const JointResult replay = RunJointTopKJoins(corpus, tree, cached);
    ASSERT_TRUE(replay.plan_from_cache) << label;
    EXPECT_FALSE(replay.per_config[0].from_planner_probe) << label;
    ExpectSameLists(fresh, replay, label + " fresh vs cached plan");

    JointOptions fixed = planned;
    fixed.q = fresh.plan.q;
    const JointResult direct = RunJointTopKJoins(corpus, tree, fixed);
    EXPECT_FALSE(direct.planner_used) << label;
    ExpectSameLists(fresh, direct, label + " fresh vs fixed q");
  }
}

// Above 511 table-A rows the sample is thinned (rate > 1): the probe is not
// the root join, so nothing is reused and the root joins as usual.
TEST(JointPlannerTest, SampledPlanRunsTheRootJoin) {
  Rng rng(9600);
  auto [a, b] = RandomTables(rng, 600);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  PromisingAttributes attrs;
  attrs.columns = {0};
  attrs.e_scores = {0.9};
  attrs.avg_len_a = {6};
  attrs.avg_len_b = {6};
  const ConfigTree tree = GenerateConfigTree(attrs);

  JointOptions planned;
  planned.k = 30;
  planned.q = 0;
  planned.planner_seed = 5;
  planned.num_threads = 2;
  const JointResult fresh = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(fresh.task_error.ok()) << fresh.task_error.ToString();
  ASSERT_GT(fresh.plan.sample_rate, 1u);
  for (const ConfigJoinResult& config : fresh.per_config) {
    EXPECT_FALSE(config.from_planner_probe);
  }

  JointOptions fixed = planned;
  fixed.q = fresh.plan.q;
  ExpectSameLists(fresh, RunJointTopKJoins(corpus, tree, fixed),
                  "sampled plan vs fixed q");
}

// Lists always agree; counters agree on every config that ran the same
// kernel in both runs (the two kernels count different work).
void ExpectSameListsAndStats(const JointResult& got, const JointResult& want,
                             const std::string& label) {
  ExpectSameLists(got, want, label);
  for (size_t i = 0; i < want.per_config.size(); ++i) {
    if (got.per_config[i].kernel != want.per_config[i].kernel) continue;
    ExpectSameStats(got.per_config[i].stats, want.per_config[i].stats,
                    label + " config " + std::to_string(i));
  }
}

// A plan chooses q, the shard count and each config's kernel: on paper
// datasets built the way a debugging session builds them, a planned joint
// run reports the lists of a fixed-q run at the same shard count, and the
// TopKJoinStats of every config that ran the event kernel in both. A
// fixed-q run has no plan, so it runs the event kernel everywhere. W-A
// 0.25 plans at sample rate 2, so its root is joined afresh with the event
// kernel; A-G 0.3 plans at rate 1, so its root is the planner's probe,
// whose counters are the join's. A cached-plan replay at 1 and 4 threads
// joins every root afresh (A-G's with the kernel its plan cost picks) and
// makes every child's choice again.
TEST(JointPlannerTest, PlannedRunReportsTheFixedQCounters) {
  struct Cell {
    const char* name;
    double scale;
    bool probe_root;
  };
  for (const Cell& cell : {Cell{"W-A", 0.25, false}, Cell{"A-G", 0.3, true}}) {
    const std::string label = cell.name;
    Result<datagen::GeneratedDataset> generated =
        datagen::GenerateByName(cell.name, cell.scale, 0);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    Table& table_a = generated->table_a;
    Table& table_b = generated->table_b;
    const std::vector<bench::PaperBlocker> blockers =
        bench::PaperBlockersFor(cell.name, table_a.schema());
    ASSERT_EQ(blockers[0].label, "OL") << label;
    const CandidateSet exclude = blockers[0].blocker->Run(table_a, table_b);
    TokenizedTable::BuildAndAttach(table_a, table_b);
    table_a.SetSchema(InferAttributeTypes(table_a));
    table_b.SetSchema(table_a.schema());
    const ConfigGeneratorOptions config_options;
    Result<PromisingAttributes> attributes =
        SelectPromisingAttributes(table_a, table_b, config_options);
    ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
    const ConfigTree tree = GenerateConfigTree(*attributes, config_options);
    const SsjCorpus corpus =
        SsjCorpus::Build(table_a, table_b, attributes->columns);

    JointOptions planned;
    planned.k = 100;
    planned.q = 0;
    planned.num_threads = 4;
    planned.shards_per_config = 1;
    planned.exclude = &exclude;
    const JointResult fresh = RunJointTopKJoins(corpus, tree, planned);
    ASSERT_TRUE(fresh.task_error.ok()) << fresh.task_error.ToString();
    ASSERT_FALSE(fresh.truncated) << label;
    ASSERT_EQ(fresh.per_config[0].from_planner_probe, cell.probe_root)
        << label;

    EXPECT_EQ(fresh.per_config[0].kernel, JoinKernel::kEvent) << label;

    JointOptions fixed = planned;
    fixed.q = fresh.plan.q;
    const JointResult direct = RunJointTopKJoins(corpus, tree, fixed);
    for (const ConfigJoinResult& config : direct.per_config) {
      EXPECT_EQ(config.kernel, JoinKernel::kEvent) << label;
    }
    ExpectSameListsAndStats(fresh, direct, label + " planned vs fixed q");

    for (size_t threads : {size_t{1}, size_t{4}}) {
      JointOptions cached = planned;
      cached.cached_plan = &fresh.plan;
      cached.num_threads = threads;
      const JointResult replay = RunJointTopKJoins(corpus, tree, cached);
      ASSERT_TRUE(replay.plan_from_cache) << label;
      EXPECT_FALSE(replay.per_config[0].from_planner_probe) << label;
      for (size_t i = 1; i < tree.size(); ++i) {
        EXPECT_EQ(replay.per_config[i].kernel, fresh.per_config[i].kernel)
            << label << " config " << i;
      }
      ExpectSameListsAndStats(
          fresh, replay,
          label + " cached plan at " + std::to_string(threads) + " threads");
    }
  }
}

}  // namespace
}  // namespace mc
