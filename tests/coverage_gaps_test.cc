// Targeted tests for paths the main suites leave thin: non-Jaccard measures
// through the joint executor, boolean attribute selection, dataset problem
// tags, and top-k list merging at capacity.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/random.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomTwoAttrTables(Rng& rng, size_t rows) {
  Schema schema({{"name", AttributeType::kString},
                 {"tags", AttributeType::kString}});
  Table a(schema), b(schema);
  auto words = [&](size_t max, const char* prefix) {
    std::string out;
    size_t n = 1 + rng.NextBelow(max);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out += ' ';
      out += prefix;
      out += std::to_string(rng.NextZipf(20, 0.8));
    }
    return out;
  };
  for (size_t i = 0; i < rows; ++i) {
    a.AddRow({words(4, "n"), words(3, "t")});
    b.AddRow({words(4, "n"), words(3, "t")});
  }
  return {std::move(a), std::move(b)};
}

class JointMeasureTest : public ::testing::TestWithParam<SetMeasure> {};

// Theorem 4.2 covers Jaccard, cosine, overlap, and Dice; the main joint
// suite exercises Jaccard — this pins the other measures end to end.
TEST_P(JointMeasureTest, JointEqualsBruteForcePerConfig) {
  const SetMeasure measure = GetParam();
  Rng rng(777);
  auto [a, b] = RandomTwoAttrTables(rng, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  PromisingAttributes attrs;
  attrs.columns = {0, 1};
  attrs.e_scores = {0.9, 0.5};
  attrs.avg_len_a = {2, 2};
  attrs.avg_len_b = {2, 2};
  ConfigTree tree = GenerateConfigTree(attrs);

  JointOptions options;
  options.k = 15;
  options.measure = measure;
  options.num_threads = 2;
  options.reuse_min_avg_tokens = 0.0;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  ASSERT_EQ(joint.per_config.size(), tree.size());
  for (size_t i = 0; i < tree.size(); ++i) {
    ConfigView view = corpus.MakeConfigView(tree.nodes[i].mask);
    std::vector<ScoredPair> expected =
        BruteForceTopK(view, options.k, measure).SortedDescending();
    const std::vector<ScoredPair>& got = joint.per_config[i].topk;
    ASSERT_EQ(got.size(), expected.size())
        << SetMeasureName(measure) << " node " << i;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_NEAR(got[r].score, expected[r].score, 1e-12)
          << SetMeasureName(measure) << " node " << i << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, JointMeasureTest,
                         ::testing::Values(SetMeasure::kCosine,
                                           SetMeasure::kDice,
                                           SetMeasure::kOverlapCoefficient),
                         [](const auto& info) {
                           return std::string(SetMeasureName(info.param));
                         });

TEST(SelectPromisingTest, BooleanAgreementKept) {
  Schema schema({{"name", AttributeType::kString},
                 {"active", AttributeType::kBoolean}});
  Table a(schema), b(schema);
  for (int i = 0; i < 10; ++i) {
    a.AddRow({"name" + std::to_string(i), i % 2 == 0 ? "yes" : "no"});
    b.AddRow({"label" + std::to_string(i), i % 2 == 0 ? "no" : "yes"});
  }
  Result<PromisingAttributes> result = SelectPromisingAttributes(a, b);
  ASSERT_TRUE(result.ok());
  // Boolean with identical value sets ({yes, no}) survives.
  EXPECT_EQ(result->columns.size(), 2u);
}

TEST(SelectPromisingTest, BooleanDisagreementDropped) {
  Schema schema({{"name", AttributeType::kString},
                 {"active", AttributeType::kBoolean}});
  Table a(schema), b(schema);
  for (int i = 0; i < 10; ++i) {
    a.AddRow({"name" + std::to_string(i), i % 2 == 0 ? "yes" : "no"});
    b.AddRow({"label" + std::to_string(i), i % 2 == 0 ? "1" : "0"});
  }
  Result<PromisingAttributes> result = SelectPromisingAttributes(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns.size(), 1u);
  EXPECT_EQ(result->columns[0], 0u);
}

TEST(DatasetTagsTest, SignatureProblemsPresentPerDataset) {
  // Each dataset must inject its headline Table 4 problem.
  auto has_tag = [](const datagen::GeneratedDataset& dataset,
                    const std::string& tag) {
    for (const auto& [name, count] : dataset.ProblemHistogram()) {
      if (name == tag && count > 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_tag(datagen::GenerateAmazonGoogle(
                          datagen::ScaleDims(datagen::kDimsAmazonGoogle, 0.3)),
                      "manufacturer sprinkled in title"));
  EXPECT_TRUE(has_tag(datagen::GenerateWalmartAmazon(
                          datagen::ScaleDims(datagen::kDimsWalmartAmazon,
                                             0.1)),
                      "missing brand"));
  EXPECT_TRUE(has_tag(datagen::GenerateAcmDblp(
                          datagen::ScaleDims(datagen::kDimsAcmDblp, 0.2)),
                      "subtitle in title"));
  EXPECT_TRUE(has_tag(datagen::GenerateFodorsZagats(), "city sprinkled in "
                                                       "name"));
  EXPECT_TRUE(has_tag(datagen::GenerateMusic(
                          datagen::ScaleDims(datagen::kDimsMusic1, 0.05)),
                      "input not lower-cased"));
  EXPECT_TRUE(has_tag(datagen::GeneratePapersLarge(
                          datagen::ScaleDims(datagen::kDimsPapers, 0.002)),
                      "venue spelled out"));
}

TEST(TopKListTest, MergeFromRespectsCapacity) {
  TopKList list(3);
  list.Add(MakePairId(0, 0), 0.5);
  list.Add(MakePairId(0, 1), 0.6);
  std::vector<ScoredPair> incoming{
      {MakePairId(1, 0), 0.9}, {MakePairId(1, 1), 0.8},
      {MakePairId(1, 2), 0.7}, {MakePairId(1, 3), 0.1}};
  list.MergeFrom(incoming);
  EXPECT_EQ(list.size(), 3u);
  std::vector<ScoredPair> sorted = list.SortedDescending();
  EXPECT_DOUBLE_EQ(sorted[0].score, 0.9);
  EXPECT_DOUBLE_EQ(sorted[1].score, 0.8);
  EXPECT_DOUBLE_EQ(sorted[2].score, 0.7);
}

}  // namespace
}  // namespace mc
