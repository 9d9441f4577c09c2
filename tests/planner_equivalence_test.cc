// Randomized planner-vs-direct equivalence suite for the cost-based join
// planner (src/ssj/join_planner.h). The planner only chooses *how* a join
// runs — q, shard count, hybrid prefilter threshold — so for every choice
// it can make, executing the chosen plan must be bit-identical (pairs and
// raw score bits) to executing the same plan directly without the planner's
// involvement, across seeded corpora, all four set measures, and a range of
// k values. Plan decisions themselves must be deterministic for a fixed
// MC_PLANNER_SEED / PlannerOptions::seed. Also pins satellite regressions:
// corpus planner statistics are invalidated by SsjCorpus::ApplyDelta (the
// generation bump), and the hybrid prefilter stays bit-identical through a
// forced restart. Run under ASan by the ci.sh `planner` stage.

#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "table/table_delta.h"
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
      text += "w" + std::to_string(rng.NextZipf(60, 0.9));
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

// Executing the planner's chosen plan (q, shards, hybrid threshold) must be
// bit-identical to executing the same (q, shards) classically — the
// planner's extra machinery (prefilter) changes work, never output.
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

  TopKJoinOptions direct;
  direct.k = k();
  direct.measure = measure();
  direct.q = plan.q;
  direct.shards = plan.shards;
  TopKList want = RunTopKJoin(view, direct);

  TopKJoinOptions planned = direct;
  if (plan.hybrid) planned.prefilter_threshold = plan.prefilter_threshold;
  TopKJoinStats stats;
  TopKList got = RunTopKJoin(view, planned, nullptr, nullptr, &stats);
  ExpectBitIdentical(got, want, "planned vs direct");
  // And against the single-shard classic run, which the sharded merge is
  // already pinned to elsewhere — closes the loop on plan.shards.
  TopKJoinOptions sequential = direct;
  sequential.shards = 1;
  ExpectBitIdentical(got, RunTopKJoin(view, sequential),
                     "planned vs sequential");
}

// The hybrid prefilter is bit-identical in BOTH of its control paths: the
// done case (tau at or below the true k-th score) and the restart case (tau
// overshoots; phase-1 list falls short and the pass re-runs unbounded,
// seeded with the survivors).
TEST_P(PlannerEquivalenceTest, HybridPrefilterBitIdenticalBothPaths) {
  Rng rng(8000 + static_cast<uint64_t>(measure()) * 100 + k());
  auto [a, b] = RandomTables(rng, 120);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions classic;
  classic.k = k();
  classic.measure = measure();
  classic.q = 2;
  TopKList want = RunTopKJoin(view, classic);
  ASSERT_TRUE(want.full()) << "workload too small for k";
  const double true_kth = want.KthScore();

  // Done case: tau == the true k-th score is the tightest valid threshold.
  {
    TopKJoinOptions hybrid = classic;
    hybrid.prefilter_threshold = true_kth;
    TopKJoinStats stats;
    TopKList got = RunTopKJoin(view, hybrid, nullptr, nullptr, &stats);
    EXPECT_EQ(stats.prefilter_restarts, 0u);
    ExpectBitIdentical(got, want, "done case");
  }
  // Restart case: an impossible tau (above every score) guarantees the
  // phase-1 list cannot certify, forcing the unbounded re-run.
  {
    TopKJoinOptions hybrid = classic;
    hybrid.prefilter_threshold = 2.0;
    TopKJoinStats stats;
    TopKList got = RunTopKJoin(view, hybrid, nullptr, nullptr, &stats);
    EXPECT_GE(stats.prefilter_restarts, 1u);
    ExpectBitIdentical(got, want, "restart case");
  }
  // Degenerate tau = 0 passes every pair yet still tightens the initial
  // bound (no negative sentinel); output unchanged.
  {
    TopKJoinOptions hybrid = classic;
    hybrid.prefilter_threshold = 0.0;
    ExpectBitIdentical(RunTopKJoin(view, hybrid), want, "tau zero");
  }
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
  EXPECT_EQ(first.hybrid, second.hybrid);
  EXPECT_EQ(first.prefilter_threshold, second.prefilter_threshold);
  EXPECT_EQ(first.sample_rate, second.sample_rate);
  EXPECT_EQ(first.sample_rows, second.sample_rows);
  EXPECT_EQ(first.sampled_kth, second.sampled_kth);
  EXPECT_EQ(first.half_sample_kth, second.half_sample_kth);
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
  ASSERT_EQ(with_planner.per_config.size(), direct.per_config.size());
  for (size_t i = 0; i < direct.per_config.size(); ++i) {
    const auto& got = with_planner.per_config[i].topk;
    const auto& want = direct.per_config[i].topk;
    ASSERT_EQ(got.size(), want.size()) << "config " << i;
    for (size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(got[e].pair, want[e].pair) << "config " << i << " entry "
                                           << e;
      EXPECT_EQ(got[e].score, want[e].score) << "config " << i << " entry "
                                             << e;
    }
  }

  // Same seed, same plan — determinism end to end through the executor.
  const JointResult replay = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(replay.planner_used);
  EXPECT_EQ(replay.plan.q, with_planner.plan.q);
  EXPECT_EQ(replay.plan.hybrid, with_planner.plan.hybrid);
  EXPECT_EQ(replay.plan.prefilter_threshold,
            with_planner.plan.prefilter_threshold);
}

}  // namespace
}  // namespace mc
