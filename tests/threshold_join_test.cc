// Randomized equivalence suite for the threshold-join execution mode
// (RunThresholdJoin, src/ssj/topk_join.h): a join driven by a fixed
// similarity bound — truncated prefixes, no replace-top heap — must be
// bit-identical (pairs AND raw score bits at every rank) to the classic
// top-k engine, whatever the bound: exact k-th (accept path), overshot
// (restart path), or zero (everything survives). Holds across all four set
// measures, a range of k, and shard counts 1 and 4; the executor dispatch
// (JoinExecMode::kThreshold via a cached plan) is pinned the same way at 1
// and 4 threads. Run under ASan by the ci.sh `plan-cache` stage.

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "text/similarity.h"
#include "util/random.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomTables(Rng& rng, size_t rows) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    std::string text;
    size_t n = 3 + rng.NextBelow(9);
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += 'w';
      text += std::to_string(rng.NextZipf(70, 0.9));
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows; ++i) {
    make_row(a);
    make_row(b);
  }
  return {std::move(a), std::move(b)};
}

// Bit-exact list comparison at every rank — the threshold driver's contract
// is identity to the classic engine, not score equivalence.
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

class ThresholdJoinTest
    : public ::testing::TestWithParam<std::tuple<SetMeasure, size_t>> {
 protected:
  SetMeasure measure() const { return std::get<0>(GetParam()); }
  size_t k() const { return std::get<1>(GetParam()); }

  TopKJoinOptions BaseOptions(size_t q) const {
    TopKJoinOptions options;
    options.k = k();
    options.measure = measure();
    options.q = q;
    return options;
  }
};

// tau at the true k-th score: the fixed-bound pass already sees everything
// the final list holds, so the driver accepts without a restart and the
// list matches the classic run rank for rank — at 1 and 4 shards.
TEST_P(ThresholdJoinTest, MatchesClassicAtTrueKth) {
  for (size_t q : {size_t{1}, size_t{2}}) {
    Rng rng(9100 + static_cast<uint64_t>(measure()) * 100 + k() + q);
    auto [a, b] = RandomTables(rng, 130);
    SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
    ConfigView view = corpus.MakeConfigView(0b1);

    TopKList want = RunTopKJoin(view, BaseOptions(q));
    const double tau = want.KthScore();
    if (!(tau > 0.0)) continue;  // Underfull list: tau=0 case covers it.

    for (size_t shards : {size_t{1}, size_t{4}}) {
      TopKJoinOptions options = BaseOptions(q);
      options.prefilter_threshold = tau;
      options.shards = shards;
      TopKJoinStats stats;
      TopKList got =
          RunThresholdJoin(view, options, nullptr, nullptr, &stats);
      ExpectBitIdentical(got, want,
                         "q=" + std::to_string(q) +
                             " shards=" + std::to_string(shards));
      EXPECT_EQ(stats.prefilter_restarts, 0u)
          << "tau == true k-th must accept without a restart";
    }
  }
}

// tau above the true k-th: the fixed-bound pass cannot fill the list at
// that score, so the driver restarts classically — and the restart seeded
// with the survivors still lands on the exact classic list.
TEST_P(ThresholdJoinTest, MatchesClassicWhenTauOvershoots) {
  Rng rng(9300 + static_cast<uint64_t>(measure()) * 100 + k());
  auto [a, b] = RandomTables(rng, 120);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKList want = RunTopKJoin(view, BaseOptions(1));
  const double kth = want.KthScore();
  const double tau = kth + (1.0 - kth) * 0.5 + 1e-6;  // Strictly above.

  for (size_t shards : {size_t{1}, size_t{4}}) {
    TopKJoinOptions options = BaseOptions(1);
    options.prefilter_threshold = tau;
    options.shards = shards;
    TopKJoinStats stats;
    TopKList got = RunThresholdJoin(view, options, nullptr, nullptr, &stats);
    ExpectBitIdentical(got, want, "shards=" + std::to_string(shards));
    if (want.size() == k() && kth < tau) {
      EXPECT_GE(stats.prefilter_restarts, 1u)
          << "an overshot tau on a full list must go through the restart";
    }
  }
}

// tau = 0 admits every pair into the fixed-bound pass: the driver must
// degenerate to the classic result without a restart.
TEST_P(ThresholdJoinTest, MatchesClassicAtZeroTau) {
  Rng rng(9500 + static_cast<uint64_t>(measure()) * 100 + k());
  auto [a, b] = RandomTables(rng, 100);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKList want = RunTopKJoin(view, BaseOptions(1));
  for (size_t shards : {size_t{1}, size_t{4}}) {
    TopKJoinOptions options = BaseOptions(1);
    options.prefilter_threshold = 0.0;
    options.shards = shards;
    TopKList got = RunThresholdJoin(view, options);
    ExpectBitIdentical(got, want, "shards=" + std::to_string(shards));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, ThresholdJoinTest,
    ::testing::Combine(::testing::Values(SetMeasure::kJaccard,
                                         SetMeasure::kCosine,
                                         SetMeasure::kDice,
                                         SetMeasure::kOverlapCoefficient),
                       ::testing::Values(5, 25, 80)),
    CaseName());

// ThresholdPrefixLength is the exact truncation point: every position it
// keeps can still reach tau, the first it drops cannot, and the count is
// monotone in tau (tighter bound, shorter prefix; tau = 0 keeps all).
TEST(ThresholdPrefixLengthTest, ExactTruncationPoint) {
  for (SetMeasure measure :
       {SetMeasure::kJaccard, SetMeasure::kCosine, SetMeasure::kDice,
        SetMeasure::kOverlapCoefficient}) {
    for (size_t len : {size_t{1}, size_t{4}, size_t{17}, size_t{60}}) {
      for (size_t q : {size_t{1}, size_t{3}}) {
        double previous = len + 1;
        for (double tau : {0.0, 0.1, 0.3, 0.5, 0.8, 0.99}) {
          const size_t kept = ThresholdPrefixLength(measure, len, q, tau);
          ASSERT_LE(kept, len);
          EXPECT_EQ(ThresholdPrefixLength(measure, len, q, 0.0), len);
          EXPECT_LE(static_cast<double>(kept), previous)
              << "prefix length must shrink as tau tightens";
          previous = static_cast<double>(kept);
          auto cap_at = [&](size_t pos) {
            const size_t effective = pos >= q ? pos - (q - 1) : 0;
            return SetSimilarityCap(measure, len, effective);
          };
          if (kept > 0) {
            EXPECT_GE(cap_at(kept - 1), tau)
                << "last kept position must still reach tau";
          }
          if (kept < len) {
            EXPECT_LT(cap_at(kept), tau)
                << "first dropped position must be below tau";
          }
        }
      }
    }
  }
}

// Executor dispatch: the same cached plan executed under
// JoinExecMode::kThreshold and under kHybridPrefilter must produce
// bit-identical per-config lists — the mode changes work, never output —
// at 1 and 4 threads.
TEST(ThresholdJoinExecutorTest, CachedPlanModeIsOutputInvariant) {
  Rng rng(9700);
  auto [a, b] = RandomTables(rng, 140);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});

  PromisingAttributes attrs;
  attrs.columns = {0};
  attrs.e_scores = {0.9};
  attrs.avg_len_a = {5};
  attrs.avg_len_b = {5};
  ConfigTree tree = GenerateConfigTree(attrs);

  // A calibrated tau: the classic root join's k-th score, so the threshold
  // pass accepts and the restart path stays cold (the overshoot case is
  // covered by the driver suite above).
  ConfigView root = corpus.MakeConfigView(0b1);
  TopKJoinOptions probe;
  probe.k = 40;
  TopKList classic = RunTopKJoin(root, probe);

  JoinPlan plan;
  plan.q = 1;
  plan.shards = 1;
  plan.hybrid = true;
  plan.prefilter_threshold = classic.KthScore();
  plan.stats_generation = corpus.generation();

  for (size_t threads : {size_t{1}, size_t{4}}) {
    JointOptions options;
    options.k = 40;
    options.q = 0;  // Planner-eligible: the cached plan short-circuits it.
    options.num_threads = threads;
    options.cached_plan = &plan;

    plan.mode = JoinExecMode::kThreshold;
    JointResult threshold_run = RunJointTopKJoins(corpus, tree, options);
    plan.mode = JoinExecMode::kHybridPrefilter;
    JointResult hybrid_run = RunJointTopKJoins(corpus, tree, options);

    ASSERT_TRUE(threshold_run.plan_from_cache);
    ASSERT_EQ(threshold_run.per_config.size(), hybrid_run.per_config.size());
    ASSERT_FALSE(threshold_run.plan_decisions.empty());
    EXPECT_EQ(threshold_run.plan_decisions[0].mode, JoinExecMode::kThreshold);
    for (size_t i = 0; i < threshold_run.per_config.size(); ++i) {
      const std::vector<ScoredPair>& g = threshold_run.per_config[i].topk;
      const std::vector<ScoredPair>& w = hybrid_run.per_config[i].topk;
      const std::string label =
          "threads=" + std::to_string(threads) + " node " + std::to_string(i);
      ASSERT_EQ(g.size(), w.size()) << label;
      for (size_t r = 0; r < g.size(); ++r) {
        EXPECT_EQ(g[r].pair, w[r].pair) << label << " rank " << r;
        EXPECT_EQ(g[r].score, w[r].score) << label << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace mc
