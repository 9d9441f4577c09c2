// Determinism and cancellation pins for the two-level joint scheduler and
// the block-parallel corpus build: the per-config lists (pairs AND scores)
// must be bit-identical for every thread count and shard count, and equal
// to independent per-config joins;
// a deadline or injected fault mid-build or mid-schedule must degrade to
// best-so-far results without deadlocking.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "joint/joint_executor.h"
#include "joint/parent_merge.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/run_context.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomThreeAttrTables(Rng& rng, size_t rows) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"desc", AttributeType::kString}});
  Table a(schema), b(schema);
  auto word = [&](const char* prefix, size_t vocab) {
    return std::string(prefix) + std::to_string(rng.NextZipf(vocab, 0.7));
  };
  auto make_row = [&](Table& table) {
    std::string name = word("n", 30) + " " + word("n", 30);
    std::string city = word("c", 10);
    std::string desc;
    size_t len = rng.NextBelow(6);
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) desc += ' ';
      desc += word("d", 40);
    }
    if (rng.NextBool(0.1)) name = "";
    if (rng.NextBool(0.2)) city = "";
    table.AddRow({name, city, desc});
  };
  for (size_t i = 0; i < rows; ++i) make_row(a);
  for (size_t i = 0; i < rows; ++i) make_row(b);
  return {std::move(a), std::move(b)};
}

PromisingAttributes ThreeColumnAttrs() {
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  return attrs;
}

// Exact equality, not EXPECT_NEAR: the determinism contract is bit-identical
// scores, not merely close ones.
void ExpectIdenticalResults(const JointResult& got,
                            const std::vector<std::vector<ScoredPair>>& ref,
                            const std::string& label) {
  ASSERT_EQ(got.per_config.size(), ref.size()) << label;
  for (size_t i = 0; i < got.per_config.size(); ++i) {
    const std::vector<ScoredPair>& g = got.per_config[i].topk;
    const std::vector<ScoredPair>& r = ref[i];
    ASSERT_EQ(g.size(), r.size()) << label << " node " << i;
    for (size_t j = 0; j < g.size(); ++j) {
      EXPECT_EQ(g[j].pair, r[j].pair)
          << label << " node " << i << " rank " << j;
      EXPECT_EQ(g[j].score, r[j].score)
          << label << " node " << i << " rank " << j;
    }
  }
}

// --------------------------------------------------------------------------
// Joint scheduler determinism.
// --------------------------------------------------------------------------

TEST(JointDeterminismTest, BitIdenticalAcrossThreadsShardsAndSchedulers) {
  Rng rng(2024);
  auto [a, b] = RandomThreeAttrTables(rng, 60);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  // Reference: an independent RunTopKJoin per config, with no reuse and no
  // scheduler. At q = 1 every joint list must equal it bit for bit
  // (Theorem 4.2 plus canonical tie handling).
  std::vector<std::vector<ScoredPair>> ref;
  for (const ConfigNode& node : tree.nodes) {
    ConfigView view = corpus.MakeConfigView(node.mask);
    TopKJoinOptions join_options;
    join_options.k = 25;
    join_options.q = 1;
    ref.push_back(RunTopKJoin(view, join_options).SortedDescending());
  }

  for (bool reuse : {false, true}) {
    JointOptions base;
    base.k = 25;
    base.q = 1;
    base.reuse_overlaps = reuse;
    base.reuse_topk = reuse;
    base.reuse_min_avg_tokens = 0.0;

    for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
      for (size_t shards : {size_t{0}, size_t{1}, size_t{3}}) {
        JointOptions options = base;
        options.num_threads = threads;
        options.shards_per_config = shards;
        JointResult got = RunJointTopKJoins(corpus, tree, options);
        ASSERT_FALSE(got.truncated);
        if (shards != 0) {
          EXPECT_EQ(got.per_config[0].shards_used, shards);
        }
        ExpectIdenticalResults(
            got, ref,
            "reuse=" + std::to_string(reuse) + " threads=" +
                std::to_string(threads) + " shards=" + std::to_string(shards));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Corpus build determinism and the zero-copy view path.
// --------------------------------------------------------------------------

TEST(CorpusBuildDeterminismTest, ParallelBuildMatchesSequential) {
  Rng rng(31);
  auto [a, b] = RandomThreeAttrTables(rng, 90);

  CorpusBuildOptions sequential;
  sequential.num_threads = 1;
  sequential.block_rows = 16;  // Many blocks even on a small table.
  CorpusBuildOptions parallel = sequential;
  parallel.num_threads = 4;

  SsjCorpus ref = SsjCorpus::Build(a, b, {0, 1, 2}, sequential);
  SsjCorpus got = SsjCorpus::Build(a, b, {0, 1, 2}, parallel);
  EXPECT_FALSE(ref.truncated());
  EXPECT_FALSE(got.truncated());
  EXPECT_GT(got.build_stats().blocks, 1u);

  ASSERT_EQ(got.rows_a(), ref.rows_a());
  ASSERT_EQ(got.rows_b(), ref.rows_b());
  ASSERT_EQ(got.dictionary().size(), ref.dictionary().size());
  auto expect_same_tuple = [](const TupleTokens& x, const TupleTokens& y,
                              const char* side, size_t row) {
    ASSERT_EQ(x.size(), y.size()) << side << row;
    for (size_t t = 0; t < x.size(); ++t) {
      EXPECT_EQ(x.ranks[t], y.ranks[t]) << side << row << " token " << t;
      EXPECT_EQ(x.masks[t], y.masks[t]) << side << row << " token " << t;
    }
  };
  for (size_t row = 0; row < ref.rows_a(); ++row) {
    expect_same_tuple(got.tuple_a(row), ref.tuple_a(row), "a", row);
  }
  for (size_t row = 0; row < ref.rows_b(); ++row) {
    expect_same_tuple(got.tuple_b(row), ref.tuple_b(row), "b", row);
  }
}

TEST(CorpusBuildDeterminismTest, ZeroCopyViewMatchesMaterialized) {
  Rng rng(32);
  auto [a, b] = RandomThreeAttrTables(rng, 60);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});

  // Reference: the materialized view of a row is its corpus tuple's ranks
  // whose attribute mask intersects the config, in rank order.
  auto mask_filter = [](const TupleTokens& tuple, ConfigMask config) {
    std::vector<uint32_t> ranks;
    for (size_t t = 0; t < tuple.size(); ++t) {
      if (tuple.masks[t] & config) ranks.push_back(tuple.ranks[t]);
    }
    return ranks;
  };

  for (ConfigMask config : {0b111u, 0b101u, 0b010u, 0b001u}) {
    ConfigView fast = corpus.MakeConfigView(config);
    EXPECT_EQ(fast.zero_copy_rows() + fast.materialized_rows(),
              fast.rows_a() + fast.rows_b());
    if (config == 0b111u) {
      // The root config filters nothing: every row is served zero-copy.
      EXPECT_EQ(fast.materialized_rows(), 0u);
    }

    ASSERT_EQ(fast.rows_a(), corpus.rows_a());
    ASSERT_EQ(fast.rows_b(), corpus.rows_b());
    EXPECT_EQ(fast.rank_limit(), corpus.dictionary().size());
    size_t total_tokens = 0;
    auto expect_same_span = [&](TokenSpan x, const std::vector<uint32_t>& y,
                                const char* side, size_t row) {
      total_tokens += y.size();
      ASSERT_EQ(x.size(), y.size())
          << "config " << config << " " << side << row;
      for (size_t t = 0; t < x.size(); ++t) {
        EXPECT_EQ(x[t], y[t]) << "config " << config << " " << side << row;
      }
    };
    for (size_t row = 0; row < fast.rows_a(); ++row) {
      expect_same_span(fast.a(row), mask_filter(corpus.tuple_a(row), config),
                       "a", row);
    }
    for (size_t row = 0; row < fast.rows_b(); ++row) {
      expect_same_span(fast.b(row), mask_filter(corpus.tuple_b(row), config),
                       "b", row);
    }
    EXPECT_DOUBLE_EQ(fast.average_tokens(),
                     static_cast<double>(total_tokens) /
                         static_cast<double>(fast.rows_a() + fast.rows_b()));
  }
}

TEST(CorpusBuildDeterminismTest, ViewScratchReturnsToPool) {
  Rng rng(33);
  auto [a, b] = RandomThreeAttrTables(rng, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  // A filtering config needs scratch; destroying its view must park the
  // buffer for the next view instead of freeing it.
  { ConfigView view = corpus.MakeConfigView(0b001); }
  ConfigView reuse = corpus.MakeConfigView(0b010);
  (void)reuse;
  SUCCEED();
}

// --------------------------------------------------------------------------
// Cancellation and fault injection: corpus build.
// --------------------------------------------------------------------------

class CorpusFaultTest : public ::testing::Test {
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_F(CorpusFaultTest, CancelledBuildTruncatesAndJointPropagates) {
  Rng rng(41);
  auto [a, b] = RandomThreeAttrTables(rng, 40);
  RunContext context = RunContext::Cancellable();
  context.Cancel();  // Fires "mid-build" at the very first block check.
  CorpusBuildOptions build;
  build.run_context = context;
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2}, build);
  EXPECT_TRUE(corpus.truncated());
  EXPECT_EQ(corpus.build_stats().dropped_blocks, corpus.build_stats().blocks);

  // A joint run over the truncated corpus must finish (no deadlock) and
  // carry the truncation flag even though every config task ran clean.
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());
  JointOptions options;
  options.k = 10;
  options.num_threads = 2;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  EXPECT_TRUE(joint.truncated);
  EXPECT_TRUE(joint.task_error.ok()) << joint.task_error.ToString();
}

TEST_F(CorpusFaultTest, FaultedBlockIsDroppedNotFatal) {
  Rng rng(42);
  auto [a, b] = RandomThreeAttrTables(rng, 64);
  FaultRegistry::Instance().Reset();
  FaultRegistry::Instance().ArmNthHit("corpus/build_block", FaultKind::kThrow,
                                      1);
  CorpusBuildOptions build;
  build.num_threads = 2;
  build.block_rows = 16;
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2}, build);
  EXPECT_TRUE(corpus.truncated());
  EXPECT_EQ(corpus.build_stats().dropped_blocks, 1u);
  EXPECT_GT(corpus.build_stats().blocks, 1u);
  // The surviving blocks tokenized normally: some tuple has tokens.
  bool any_tokens = false;
  for (size_t row = 0; row < corpus.rows_a(); ++row) {
    if (corpus.tuple_a(row).size() > 0) any_tokens = true;
  }
  EXPECT_TRUE(any_tokens);
}

// --------------------------------------------------------------------------
// Fault injection: shard tasks of the two-level scheduler.
// --------------------------------------------------------------------------

class JointShardFaultTest : public ::testing::Test {
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_F(JointShardFaultTest, ThrowingShardTaskIsCapturedNotFatal) {
  Rng rng(51);
  auto [a, b] = RandomThreeAttrTables(rng, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  FaultRegistry::Instance().Reset();
  FaultRegistry::Instance().ArmNthHit("joint/shard_task", FaultKind::kThrow,
                                      1);

  JointOptions options;
  options.k = 10;
  options.num_threads = 4;
  options.shards_per_config = 3;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);

  // The first shard task to run belongs to the root (parents-first: only
  // the root's shards are in flight initially), so exactly that config is
  // incomplete; its children still ran, seeded from the partial list.
  EXPECT_EQ(joint.task_error.code(), StatusCode::kInternal);
  EXPECT_NE(joint.task_error.message().find("joint/shard_task"),
            std::string::npos)
      << joint.task_error.ToString();
  EXPECT_TRUE(joint.truncated);
  size_t incomplete = 0;
  for (size_t i = 0; i < joint.per_config.size(); ++i) {
    if (!joint.per_config[i].completed) {
      ++incomplete;
      EXPECT_EQ(i, 0u);  // The root.
    }
  }
  EXPECT_EQ(incomplete, 1u);
}

// --------------------------------------------------------------------------
// Parent-list re-adjustment (ReadjustToConfig).
// --------------------------------------------------------------------------

class CountingScorer : public PairScorer {
 public:
  double Score(RowId row_a, RowId row_b) override {
    (void)row_a;
    (void)row_b;
    ++calls;
    return 0.5;
  }
  size_t calls = 0;
};

TEST(ParentMergeTest, ReadjustDropsRowsEmptyUnderChildConfig) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"alpha beta", ""});       // Row 0: empty under config 0b10.
  a.AddRow({"gamma", "delta"});       // Row 1: survives both configs.
  b.AddRow({"alpha", "delta epsilon"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  ConfigView child = corpus.MakeConfigView(0b10);
  CountingScorer scorer;
  std::vector<ScoredPair> parent_list{{MakePairId(0, 0), 0.9},
                                      {MakePairId(1, 0), 0.4}};
  std::vector<ScoredPair> adjusted =
      ReadjustToConfig(parent_list, child, scorer);
  ASSERT_EQ(adjusted.size(), 1u);
  EXPECT_EQ(adjusted[0].pair, MakePairId(1, 0));
  EXPECT_EQ(scorer.calls, 1u);  // Only the surviving pair was re-scored.
}

}  // namespace
}  // namespace mc
