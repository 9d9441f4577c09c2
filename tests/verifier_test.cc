#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "learn/features.h"
#include "simd/kernels.h"
#include "simd_levels.h"
#include "ssj/topk_list.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "util/random.h"
#include "verifier/match_verifier.h"
#include "verifier/user_oracle.h"

namespace mc {
namespace {

// A small synthetic world: pairs (i, i) are matches, with feature-friendly
// structure — matching rows share most name words, non-matching share few.
struct World {
  Table a, b;
  CandidateSet gold;
  std::vector<std::vector<ScoredPair>> lists;
  std::unique_ptr<PairFeatureExtractor> extractor;

  World() : a(MakeSchema()), b(MakeSchema()) {}

  static Schema MakeSchema() {
    return Schema({{"name", AttributeType::kString},
                   {"city", AttributeType::kString}});
  }
};

// With `attach_plane`, features read spans off a shared text plane, so
// re-ranking runs through the SIMD-dispatched overlap kernels.
std::unique_ptr<World> MakeWorld(size_t rows, uint64_t seed,
                                 bool attach_plane = false) {
  auto world = std::make_unique<World>();
  Rng rng(seed);
  static const char* const kCities[] = {"atlanta", "boston", "chicago",
                                        "denver"};
  for (size_t i = 0; i < rows; ++i) {
    std::string base = "entity" + std::to_string(i) + " token" +
                       std::to_string(rng.NextBelow(6)) + " word" +
                       std::to_string(i % 7);
    std::string city = kCities[i % 4];
    world->a.AddRow({base, city});
    // Match: same words, maybe one typo'd token appended.
    std::string matched = base + (rng.NextBool(0.4) ? " extra" : "");
    world->b.AddRow({matched, city});
    world->gold.Add(static_cast<RowId>(i), static_cast<RowId>(i));
  }
  // Two top-k lists ("configs"): one scoring matches high with some noise
  // pairs, one mostly noise.
  std::vector<ScoredPair> list1, list2;
  for (size_t i = 0; i < rows; ++i) {
    list1.push_back({MakePairId(static_cast<RowId>(i),
                                static_cast<RowId>(i)),
                     0.9 - 0.3 * static_cast<double>(i) / rows});
    // Noise pair (i, i+1).
    if (i + 1 < rows) {
      list1.push_back({MakePairId(static_cast<RowId>(i),
                                  static_cast<RowId>(i + 1)),
                       0.85 - 0.4 * static_cast<double>(i) / rows});
    }
    list2.push_back({MakePairId(static_cast<RowId>(i),
                                static_cast<RowId>((i + 2) % rows)),
                     0.8 - 0.5 * static_cast<double>(i) / rows});
  }
  auto by_score = [](const ScoredPair& x, const ScoredPair& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.pair < y.pair;
  };
  std::sort(list1.begin(), list1.end(), by_score);
  std::sort(list2.begin(), list2.end(), by_score);
  world->lists = {list1, list2};
  if (attach_plane) TokenizedTable::BuildAndAttach(world->a, world->b, {});
  world->extractor =
      std::make_unique<PairFeatureExtractor>(&world->a, &world->b);
  return world;
}

VerifierOptions SmallOptions() {
  VerifierOptions options;
  options.pairs_per_iteration = 10;
  options.forest.num_trees = 8;
  return options;
}

TEST(MatchVerifierTest, FindsMostMatchesWithOracle) {
  auto world = MakeWorld(40, 5);
  MatchVerifier verifier(world->lists, world->extractor.get(),
                         SmallOptions());
  GoldOracle oracle(&world->gold);
  VerifierResult result = verifier.Run(oracle);
  // Every confirmed match must be gold.
  for (PairId pair : result.confirmed_matches) {
    EXPECT_TRUE(world->gold.Contains(pair));
  }
  // The lists contain all 40 gold pairs; the verifier should find most of
  // them before its natural stop.
  EXPECT_GE(result.confirmed_matches.size(), 30u);
  EXPECT_FALSE(result.iterations.empty());
}

TEST(MatchVerifierTest, PhaseProgression) {
  auto world = MakeWorld(40, 6);
  MatchVerifier verifier(world->lists, world->extractor.get(),
                         SmallOptions());
  GoldOracle oracle(&world->gold);
  VerifierResult result = verifier.Run(oracle);
  // Phases must appear in order: medrank+ then active{<=3} then online*.
  size_t i = 0;
  const auto& iterations = result.iterations;
  while (i < iterations.size() && iterations[i].phase == "medrank") ++i;
  EXPECT_GT(i, 0u) << "bootstrap must run at least once";
  size_t active = 0;
  while (i < iterations.size() && iterations[i].phase == "active") {
    ++i;
    ++active;
  }
  EXPECT_LE(active, 3u);
  while (i < iterations.size() && iterations[i].phase == "online") ++i;
  EXPECT_EQ(i, iterations.size()) << "unexpected phase order";
}

TEST(MatchVerifierTest, StopsAfterTwoEmptyIterations) {
  // Gold contains nothing -> every iteration is empty -> stop after 2.
  auto world = MakeWorld(40, 7);
  CandidateSet empty_gold;
  MatchVerifier verifier(world->lists, world->extractor.get(),
                         SmallOptions());
  GoldOracle oracle(&empty_gold);
  VerifierResult result = verifier.Run(oracle);
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_EQ(result.confirmed_matches.size(), 0u);
}

TEST(MatchVerifierTest, RunIterationsIgnoresNaturalStop) {
  auto world = MakeWorld(40, 8);
  CandidateSet empty_gold;
  MatchVerifier verifier(world->lists, world->extractor.get(),
                         SmallOptions());
  GoldOracle oracle(&empty_gold);
  VerifierResult result = verifier.RunIterations(oracle, 5);
  EXPECT_EQ(result.iterations.size(), 5u);
}

TEST(MatchVerifierTest, WmrModeWorks) {
  auto world = MakeWorld(40, 9);
  VerifierOptions options = SmallOptions();
  options.use_learning = false;
  MatchVerifier verifier(world->lists, world->extractor.get(), options);
  GoldOracle oracle(&world->gold);
  VerifierResult result = verifier.Run(oracle);
  for (const IterationTrace& trace : result.iterations) {
    EXPECT_EQ(trace.phase, "wmr");
  }
  EXPECT_GT(result.confirmed_matches.size(), 0u);
}

TEST(MatchVerifierTest, NeverShowsPairTwice) {
  auto world = MakeWorld(30, 10);
  MatchVerifier verifier(world->lists, world->extractor.get(),
                         SmallOptions());
  GoldOracle oracle(&world->gold);
  VerifierResult result = verifier.Run(oracle);
  CandidateSet seen;
  for (const IterationTrace& trace : result.iterations) {
    for (PairId pair : trace.shown) {
      EXPECT_FALSE(seen.Contains(pair)) << "pair shown twice";
      seen.Add(pair);
    }
  }
}

TEST(MatchVerifierTest, ExhaustsSmallCandidateSet) {
  auto world = MakeWorld(4, 11);
  VerifierOptions options = SmallOptions();
  options.stop_after_empty_iterations = 100;  // Effectively off.
  MatchVerifier verifier(world->lists, world->extractor.get(), options);
  GoldOracle oracle(&world->gold);
  VerifierResult result = verifier.Run(oracle);
  // All candidates get shown, then the loop ends.
  size_t total_candidates =
      MatchVerifier(world->lists, world->extractor.get(), options)
          .candidates()
          .size();
  EXPECT_EQ(result.pairs_shown, total_candidates);
}

TEST(MatchVerifierTest, IncrementalApiMatchesBatching) {
  auto world = MakeWorld(25, 12);
  MatchVerifier verifier(world->lists, world->extractor.get(),
                         SmallOptions());
  GoldOracle oracle(&world->gold);
  size_t iterations = 0;
  while (!verifier.ShouldStop()) {
    std::vector<PairId> batch = verifier.NextBatch();
    if (batch.empty()) break;
    std::vector<std::pair<PairId, bool>> labels;
    for (PairId pair : batch) {
      labels.emplace_back(pair, oracle.IsMatch(pair));
    }
    verifier.SubmitLabels(labels);
    ++iterations;
  }
  EXPECT_GT(iterations, 0u);
  EXPECT_GT(verifier.confirmed_matches().size(), 0u);
  EXPECT_EQ(verifier.iterations().size(), iterations);
}

TEST(MatchVerifierTest, LearningBeatsOrEqualsWmrOnStructuredData) {
  // The §6.5 claim in miniature: active/online learning should find at
  // least as many matches as WMR within a fixed iteration budget.
  auto world = MakeWorld(60, 13);
  GoldOracle oracle(&world->gold);

  VerifierOptions learn_options = SmallOptions();
  MatchVerifier learner(world->lists, world->extractor.get(), learn_options);
  VerifierResult learned = learner.RunIterations(oracle, 8);

  VerifierOptions wmr_options = SmallOptions();
  wmr_options.use_learning = false;
  MatchVerifier wmr(world->lists, world->extractor.get(), wmr_options);
  VerifierResult ranked = wmr.RunIterations(oracle, 8);

  EXPECT_GE(learned.confirmed_matches.size() + 2,
            ranked.confirmed_matches.size());
}

TEST(MatchVerifierTest, BatchedRerankIsBitIdenticalAcrossThreadCounts) {
  // The batched re-ranking (parallel feature-matrix build + fused
  // PredictBatch) must produce byte-identical runs at 1 and 4 threads and,
  // over an attached text plane, at every usable SIMD dispatch level: same
  // batches in the same order, same phases, same confirmed matches. The
  // reference is the string path at one thread.
  auto make_result = [](size_t num_threads, bool attach_plane) {
    auto world = MakeWorld(60, 11, attach_plane);
    EXPECT_EQ(SharedTextPlane(world->a, world->b) != nullptr, attach_plane);
    VerifierOptions options = SmallOptions();
    options.num_threads = num_threads;
    MatchVerifier verifier(world->lists, world->extractor.get(), options);
    GoldOracle oracle(&world->gold);
    return verifier.Run(oracle);
  };
  auto expect_same = [](const VerifierResult& want, const VerifierResult& got,
                        const std::string& label) {
    ASSERT_EQ(want.num_iterations(), got.num_iterations()) << label;
    for (size_t i = 0; i < want.num_iterations(); ++i) {
      EXPECT_EQ(want.iterations[i].phase, got.iterations[i].phase)
          << label << " iteration " << i;
      EXPECT_EQ(want.iterations[i].shown, got.iterations[i].shown)
          << label << " iteration " << i;
      EXPECT_EQ(want.iterations[i].new_matches, got.iterations[i].new_matches)
          << label << " iteration " << i;
    }
    EXPECT_EQ(want.confirmed_matches.SortedPairs(),
              got.confirmed_matches.SortedPairs())
        << label;
    EXPECT_EQ(want.pairs_shown, got.pairs_shown) << label;
  };
  const VerifierResult sequential = make_result(1, /*attach_plane=*/false);
  expect_same(sequential, make_result(4, /*attach_plane=*/false),
              "strings threads=4");
  for (simd::SimdLevel level : simd::UsableLevels()) {
    simd::ScopedSimdLevel scoped(level);
    ASSERT_EQ(simd::ActiveSimdLevel(), level);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      expect_same(sequential, make_result(threads, /*attach_plane=*/true),
                  std::string("plane level=") + simd::SimdLevelName(level) +
                      " threads=" + std::to_string(threads));
    }
  }
}

TEST(RandomForestBatchTest, PredictBatchMatchesSingleSamplePredictions) {
  // Train a small forest on the synthetic world's features, then check the
  // fused batch path against the per-sample getters, at 1 and 4 threads.
  auto world = MakeWorld(30, 3);
  std::vector<FeatureVector> features;
  std::vector<int> labels;
  for (size_t i = 0; i < 30; ++i) {
    const PairId match = MakePairId(static_cast<RowId>(i),
                                    static_cast<RowId>(i));
    features.push_back(world->extractor->Extract(match));
    labels.push_back(1);
    const PairId non_match = MakePairId(static_cast<RowId>(i),
                                        static_cast<RowId>((i + 5) % 30));
    features.push_back(world->extractor->Extract(non_match));
    labels.push_back(0);
  }
  ForestParams params;
  params.num_trees = 16;
  const RandomForest forest = RandomForest::Train(features, labels, params);

  const size_t nf = world->extractor->num_features();
  std::vector<double> matrix(features.size() * nf);
  for (size_t i = 0; i < features.size(); ++i) {
    std::copy(features[i].begin(), features[i].end(),
              matrix.begin() + i * nf);
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<double> confidence(features.size(), -1.0);
    std::vector<double> controversy(features.size(), -1.0);
    forest.PredictBatch(matrix.data(), features.size(), nf, threads,
                        confidence.data(), controversy.data());
    for (size_t i = 0; i < features.size(); ++i) {
      const ForestPrediction fused = forest.Predict(features[i]);
      EXPECT_EQ(confidence[i], forest.Confidence(features[i]))
          << "threads=" << threads << " sample=" << i;
      EXPECT_EQ(confidence[i], fused.confidence)
          << "threads=" << threads << " sample=" << i;
      EXPECT_EQ(controversy[i], fused.controversy)
          << "threads=" << threads << " sample=" << i;
    }
  }
}

TEST(PairFeatureExtractorBatchTest, ExtractBatchMatchesExtract) {
  auto world = MakeWorld(25, 9);
  std::vector<PairId> pairs;
  for (size_t i = 0; i < 25; ++i) {
    pairs.push_back(MakePairId(static_cast<RowId>(i), static_cast<RowId>(i)));
    pairs.push_back(MakePairId(static_cast<RowId>(i),
                               static_cast<RowId>((i + 3) % 25)));
  }
  const size_t nf = world->extractor->num_features();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<double> matrix(pairs.size() * nf, -1.0);
    world->extractor->ExtractBatch(pairs.data(), pairs.size(), threads,
                                   matrix.data());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const FeatureVector want = world->extractor->Extract(pairs[i]);
      const FeatureVector got(matrix.begin() + i * nf,
                              matrix.begin() + (i + 1) * nf);
      EXPECT_EQ(got, want) << "threads=" << threads << " pair=" << i;
    }
  }
}

}  // namespace
}  // namespace mc
