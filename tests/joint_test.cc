#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/caching_scorer.h"
#include "joint/joint_executor.h"
#include "joint/overlap_cache.h"
#include "learn/features.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/run_context.h"
#include "util/stopwatch.h"
#include "verifier/match_verifier.h"

namespace mc {
namespace {

TEST(OverlapCacheTest, ComputeSharedAndFilter) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"jim madison", "smithville"});
  b.AddRow({"jim smithville", "madison"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  CachedOverlap shared = OverlapCache::ComputeShared(corpus.tuple_a(0),
                                                     corpus.tuple_b(0));
  EXPECT_EQ(shared.size(), 3u);  // jim, madison, smithville.
  EXPECT_EQ(OverlapCache::OverlapUnder(shared, 0b11), 3u);
  EXPECT_EQ(OverlapCache::OverlapUnder(shared, 0b01), 1u);
  EXPECT_EQ(OverlapCache::OverlapUnder(shared, 0b10), 0u);
}

TEST(OverlapCacheTest, InsertFindRoundTrip) {
  OverlapCache cache;
  EXPECT_EQ(cache.Find(MakePairId(1, 2)), nullptr);
  CachedOverlap overlap{{0b01, 0b10}};
  const CachedOverlap* stored = cache.Insert(MakePairId(1, 2), overlap);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.Find(MakePairId(1, 2)), stored);
  EXPECT_EQ(cache.Size(), 1u);
}

TEST(CachingScorerTest, AgreesWithDirectScorer) {
  Rng rng(42);
  Schema schema({{"name", AttributeType::kString},
                 {"desc", AttributeType::kString}});
  Table a(schema), b(schema);
  for (int i = 0; i < 30; ++i) {
    std::string name = "name" + std::to_string(rng.NextBelow(10)) + " token" +
                       std::to_string(rng.NextBelow(5));
    std::string desc = "d" + std::to_string(rng.NextBelow(8)) + " d" +
                       std::to_string(rng.NextBelow(8));
    a.AddRow({name, desc});
    b.AddRow({name + " extra", desc});
  }
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  for (ConfigMask config : {0b11u, 0b01u, 0b10u}) {
    ConfigView view = corpus.MakeConfigView(config);
    DirectPairScorer direct(&view, SetMeasure::kJaccard);
    OverlapCache cache;
    CachingPairScorer caching(&view, config, SetMeasure::kJaccard, &cache);
    for (RowId i = 0; i < 30; ++i) {
      for (RowId j = 0; j < 30; j += 7) {
        EXPECT_NEAR(caching.Score(i, j), direct.Score(i, j), 1e-12)
            << "config " << config;
      }
    }
  }
}

TEST(CachingScorerTest, SecondConfigHitsCache) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"dave smith", "atlanta"});
  b.AddRow({"david smith", "atlanta"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  OverlapCache cache;

  ConfigView view_root = corpus.MakeConfigView(0b11);
  CachingPairScorer root(&view_root, 0b11, SetMeasure::kJaccard, &cache);
  root.Score(0, 0);
  EXPECT_EQ(root.cache_misses(), 1u);
  // Scorers only read the cache. The joint executor publishes a config's
  // kept pairs when the config finishes, the way this insert does.
  EXPECT_EQ(cache.Size(), 0u);
  cache.InsertWith(MakePairId(0, 0), [&] {
    return OverlapCache::ComputeShared(corpus.tuple_a(0), corpus.tuple_b(0));
  });
  EXPECT_EQ(cache.Size(), 1u);

  ConfigView view_child = corpus.MakeConfigView(0b01);
  CachingPairScorer child(&view_child, 0b01, SetMeasure::kJaccard, &cache);
  double score = child.Score(0, 0);
  EXPECT_EQ(child.cache_hits(), 1u);
  EXPECT_EQ(child.cache_misses(), 0u);
  // {dave, smith} vs {david, smith} -> 1/3.
  EXPECT_NEAR(score, 1.0 / 3.0, 1e-12);
}

// --------------------------------------------------------------------------
// Joint execution: Theorem 4.2 — joint result per config equals the
// independent per-config QJoin (and brute force), for every reuse mode and
// thread count.
// --------------------------------------------------------------------------

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

struct JointModes {
  bool reuse_overlaps;
  bool reuse_topk;
  size_t threads;
};

class JointEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(JointEquivalenceTest, JointEqualsIndependentPerConfig) {
  auto [seed, mode_index] = GetParam();
  const JointModes kModes[] = {
      {false, false, 1}, {true, false, 1},  {false, true, 1},
      {true, true, 1},   {true, true, 4},   {false, false, 4},
  };
  const JointModes mode = kModes[mode_index];

  Rng rng(seed);
  auto [a, b] = RandomThreeAttrTables(rng, 50);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});

  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  ConfigTree tree = GenerateConfigTree(attrs);
  ASSERT_EQ(tree.size(), 6u);

  // A small exclusion set to exercise the C-filter.
  CandidateSet exclude;
  for (RowId i = 0; i < 20; ++i) exclude.Add(i, i);

  JointOptions options;
  options.k = 25;
  options.q = 1;
  options.exclude = &exclude;
  options.reuse_overlaps = mode.reuse_overlaps;
  options.reuse_topk = mode.reuse_topk;
  options.reuse_min_avg_tokens = 0.0;  // Force the cache on when enabled.
  options.num_threads = mode.threads;

  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  ASSERT_EQ(joint.per_config.size(), tree.size());

  for (size_t i = 0; i < tree.size(); ++i) {
    ConfigView view = corpus.MakeConfigView(tree.nodes[i].mask);
    TopKList brute =
        BruteForceTopK(view, options.k, options.measure, &exclude);
    std::vector<ScoredPair> expected = brute.SortedDescending();
    const std::vector<ScoredPair>& got = joint.per_config[i].topk;
    ASSERT_EQ(got.size(), expected.size())
        << "config node " << i << " mask " << tree.nodes[i].mask;
    DirectPairScorer scorer(&view, options.measure);
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_NEAR(got[r].score, expected[r].score, 1e-12)
          << "node " << i << " rank " << r;
      EXPECT_NEAR(got[r].score,
                  scorer.Score(PairRowA(got[r].pair), PairRowB(got[r].pair)),
                  1e-12);
      EXPECT_FALSE(exclude.Contains(got[r].pair));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, JointEquivalenceTest,
    ::testing::Combine(::testing::Values(101, 202),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

TEST(JointExecutorTest, ReportsReuseActivation) {
  Rng rng(77);
  auto [a, b] = RandomThreeAttrTables(rng, 30);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  ConfigTree tree = GenerateConfigTree(attrs);

  JointOptions options;
  options.k = 10;
  options.num_threads = 1;
  options.reuse_min_avg_tokens = 1000.0;  // Never triggers.
  JointResult no_reuse = RunJointTopKJoins(corpus, tree, options);
  EXPECT_FALSE(no_reuse.overlap_reuse_active);
  // No CachingPairScorer is ever constructed when reuse is off: the cache
  // counters are absent (0), not counters of a cache that saw no traffic.
  for (const auto& config : no_reuse.per_config) {
    EXPECT_EQ(config.cache_hits, 0u);
    EXPECT_EQ(config.cache_misses, 0u);
  }

  options.reuse_min_avg_tokens = 0.0;
  JointResult with_reuse = RunJointTopKJoins(corpus, tree, options);
  EXPECT_TRUE(with_reuse.overlap_reuse_active);
  // Some child config must have hit the cache.
  size_t total_hits = 0;
  for (const auto& config : with_reuse.per_config) {
    total_hits += config.cache_hits;
  }
  EXPECT_GT(total_hits, 0u);
}

TEST(JointExecutorTest, SequentialChildrenAreSeeded) {
  Rng rng(88);
  auto [a, b] = RandomThreeAttrTables(rng, 30);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  ConfigTree tree = GenerateConfigTree(attrs);

  JointOptions options;
  options.k = 10;
  options.num_threads = 1;  // BFS order: parents always finish first.
  options.reuse_topk = true;
  JointResult result = RunJointTopKJoins(corpus, tree, options);
  for (size_t i = 1; i < result.per_config.size(); ++i) {
    EXPECT_TRUE(result.per_config[i].seeded_from_parent) << "node " << i;
  }
}

TEST(JointExecutorTest, AutoQRuns) {
  Rng rng(99);
  auto [a, b] = RandomThreeAttrTables(rng, 30);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  ConfigTree tree = GenerateConfigTree(attrs);
  JointOptions options;
  options.k = 10;
  options.q = 0;  // The planner picks q.
  options.num_threads = 2;
  JointResult result = RunJointTopKJoins(corpus, tree, options);
  EXPECT_GE(result.q_used, 1u);
  EXPECT_LE(result.q_used, 4u);
  EXPECT_EQ(result.per_config.size(), tree.size());
}

// --------------------------------------------------------------------------
// Fault tolerance: deadlines, cancellation, and injected task failures
// (docs/robustness.md).
// --------------------------------------------------------------------------

PromisingAttributes ThreeColumnAttrs() {
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  return attrs;
}

TEST(JointFaultToleranceTest, DeadlineTruncatesButPartialListsFeedVerifier) {
  // A corpus big enough that the joint run cannot finish inside 50ms: the
  // Amazon-Google-style generator at full Table 1 dims, long descriptions.
  datagen::GeneratedDataset data = datagen::GenerateAmazonGoogle();
  SsjCorpus corpus =
      SsjCorpus::Build(data.table_a, data.table_b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  JointOptions options;
  options.k = 1000;
  options.num_threads = 4;
  options.run_context = RunContext::WithDeadline(50);

  Stopwatch watch;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  double elapsed_ms = watch.ElapsedSeconds() * 1000.0;

  EXPECT_TRUE(joint.truncated);
  EXPECT_TRUE(joint.task_error.ok()) << joint.task_error.ToString();
  ASSERT_EQ(joint.per_config.size(), tree.size());
  bool any_incomplete = false;
  for (const ConfigJoinResult& config : joint.per_config) {
    if (!config.completed) any_incomplete = true;
    EXPECT_LE(config.topk.size(), options.k);
  }
  EXPECT_TRUE(any_incomplete);

  // The join must return shortly after the deadline, not run to completion.
  // Sanitizer builds run the join an order of magnitude slower, so the
  // bound is loosened there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  EXPECT_LT(elapsed_ms, 10000.0);
#else
  EXPECT_LT(elapsed_ms, 1000.0);
#endif

  // Graceful degradation: the best-so-far lists are valid verifier input.
  std::vector<std::vector<ScoredPair>> lists;
  for (const ConfigJoinResult& config : joint.per_config) {
    lists.push_back(config.topk);
  }
  PairFeatureExtractor extractor(&data.table_a, &data.table_b);
  MatchVerifier verifier(std::move(lists), &extractor, VerifierOptions{});
  std::vector<PairId> batch = verifier.NextBatch();
  EXPECT_LE(batch.size(), VerifierOptions{}.pairs_per_iteration);
}

TEST(JointFaultToleranceTest, CancelledBeforeStartSkipsEveryConfig) {
  Rng rng(55);
  auto [a, b] = RandomThreeAttrTables(rng, 30);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  RunContext context = RunContext::Cancellable();
  context.Cancel();
  JointOptions options;
  options.k = 10;
  options.num_threads = 1;
  options.run_context = context;

  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  EXPECT_TRUE(joint.truncated);
  ASSERT_EQ(joint.per_config.size(), tree.size());
  for (const ConfigJoinResult& config : joint.per_config) {
    EXPECT_FALSE(config.completed);
    EXPECT_TRUE(config.topk.empty());
  }
}

TEST(JointFaultToleranceTest, NoDeadlineRunMatchesSeedBehavior) {
  // An inert (default) run context must leave results identical to a run
  // with no context plumbing at all — the byte-identical contract.
  Rng rng(101);
  auto [a, b] = RandomThreeAttrTables(rng, 50);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  JointOptions options;
  options.k = 25;
  options.num_threads = 1;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  EXPECT_FALSE(joint.truncated);
  EXPECT_TRUE(joint.task_error.ok());
  for (const ConfigJoinResult& config : joint.per_config) {
    EXPECT_TRUE(config.completed);
    EXPECT_FALSE(config.stats.truncated);
  }
}

class JointTaskFaultTest : public ::testing::TestWithParam<size_t> {
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_P(JointTaskFaultTest, ThrowingConfigTaskIsCapturedNotFatal) {
  const size_t num_threads = GetParam();
  Rng rng(66);
  auto [a, b] = RandomThreeAttrTables(rng, 30);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  FaultRegistry::Instance().Reset();
  FaultRegistry::Instance().ArmNthHit("joint/run_node", FaultKind::kThrow, 1);

  JointOptions options;
  options.k = 10;
  options.num_threads = num_threads;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);

  // Exactly one config task threw; it is captured as a typed error, the
  // workers survive, and every other config still ran to completion.
  EXPECT_EQ(joint.task_error.code(), StatusCode::kInternal);
  // Sequential runs report "config task threw ..."; pooled runs surface the
  // pool boundary's "pool task threw ...". Both carry the injected message.
  EXPECT_NE(joint.task_error.message().find("task threw"), std::string::npos)
      << joint.task_error.ToString();
  EXPECT_NE(joint.task_error.message().find("joint/run_node"),
            std::string::npos)
      << joint.task_error.ToString();
  EXPECT_TRUE(joint.truncated);
  size_t incomplete = 0;
  for (const ConfigJoinResult& config : joint.per_config) {
    if (!config.completed) {
      ++incomplete;
      EXPECT_TRUE(config.topk.empty());
    }
  }
  EXPECT_EQ(incomplete, 1u);
}

INSTANTIATE_TEST_SUITE_P(Threads, JointTaskFaultTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace mc
