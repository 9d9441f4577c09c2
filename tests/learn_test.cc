#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "learn/decision_tree.h"
#include "learn/features.h"
#include "learn/random_forest.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mc {
namespace {

TEST(FeaturesTest, NamesAndDimensions) {
  Schema schema({{"name", AttributeType::kString},
                 {"price", AttributeType::kNumeric}});
  Table a(schema), b(schema);
  a.AddRow({"dave smith", "10"});
  b.AddRow({"david smith", "12"});
  PairFeatureExtractor extractor(&a, &b);
  // 6 string features + 3 numeric features.
  EXPECT_EQ(extractor.num_features(), 9u);
  EXPECT_EQ(extractor.feature_names()[0], "name:jaccard_word");
  EXPECT_EQ(extractor.feature_names()[6], "price:abs_diff");

  FeatureVector features = extractor.Extract(MakePairId(0, 0));
  ASSERT_EQ(features.size(), 9u);
  EXPECT_NEAR(features[0], 1.0 / 3.0, 1e-12);  // word jaccard.
  EXPECT_DOUBLE_EQ(features[5], 1.0);          // both present.
  EXPECT_DOUBLE_EQ(features[6], 2.0);          // abs diff.
  EXPECT_NEAR(features[7], 2.0 / 12.0, 1e-12);  // rel diff.
  EXPECT_DOUBLE_EQ(features[8], 1.0);
}

TEST(FeaturesTest, MissingValuesZeroed) {
  Schema schema({{"name", AttributeType::kString},
                 {"price", AttributeType::kNumeric}});
  Table a(schema), b(schema);
  a.AddRow({"", "10"});
  b.AddRow({"david smith", ""});
  PairFeatureExtractor extractor(&a, &b);
  FeatureVector features = extractor.Extract(MakePairId(0, 0));
  for (double value : features) EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(FeaturesTest, IdenticalPairMaximal) {
  Schema schema({{"name", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"exact same words"});
  b.AddRow({"exact same words"});
  PairFeatureExtractor extractor(&a, &b);
  FeatureVector features = extractor.Extract(MakePairId(0, 0));
  for (size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(features[i], 1.0);
}

// Exact double equality over the bit patterns (== would hide a -0.0).
::testing::AssertionResult SameBits(double x, double y) {
  uint64_t bx, by;
  std::memcpy(&bx, &x, sizeof(bx));
  std::memcpy(&by, &y, sizeof(by));
  if (bx == by) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << x << " vs " << y;
}

void ExpectSameFeatures(const std::vector<double>& got,
                        const std::vector<double>& want, size_t nf) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameBits(got[i], want[i]))
        << "pair " << i / nf << " feature " << i % nf;
  }
}

// Cells where the 3-gram coder could disagree with the string grams:
// empty, blank and punctuation-only cells; 1- and 2-character cells, all
// padding; bytes 0x80-0xFF and an embedded NUL (separators); repeated
// grams; cells past the edit-similarity prefix; one 64 KiB cell.
std::vector<std::string> HardCells() {
  using namespace std::string_literals;
  std::string long_cell;
  Rng rng(64);
  static const char kBytes[] = "abcdefghijklmnop0123456789 ,.-\xe9\xff";
  while (long_cell.size() < 64 * 1024) {
    long_cell.push_back(kBytes[rng.NextBelow(sizeof(kBytes) - 1)]);
  }
  return {""s,
          "  \t "s,
          "!!! ,,, ???"s,
          "a"s,
          "Z"s,
          "ab"s,
          "x y"s,
          "caf\xc3\xa9 na\xefve \x80\xff"s,
          "\xfe\xff"s,
          "ab\0cd"s,
          "\0"s,
          "aaaa aaaa aaaa"s,
          "abcabcabcabc ABC"s,
          "the quick brown fox jumps over the lazy dog, twice over"s,
          long_cell};
}

// A pair of tables over the hard cells, a numeric column between two
// string columns so the extractor's string-column indexing is exercised.
std::pair<Table, Table> HardCellTables() {
  Schema schema({{"name", AttributeType::kString},
                 {"price", AttributeType::kNumeric},
                 {"description", AttributeType::kString}});
  const std::vector<std::string> cells = HardCells();
  Table a(schema), b(schema);
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string price = std::to_string(i % 4);
    a.AddRow({cells[i], price, cells[(i + 5) % cells.size()]});
    b.AddRow({cells[cells.size() - 1 - i], price,
              cells[(i + 2) % cells.size()]});
  }
  return {std::move(a), std::move(b)};
}

std::vector<PairId> AllPairs(const Table& a, const Table& b) {
  std::vector<PairId> pairs;
  for (size_t ra = 0; ra < a.num_rows(); ++ra) {
    for (size_t rb = 0; rb < b.num_rows(); ++rb) {
      pairs.push_back(
          MakePairId(static_cast<RowId>(ra), static_cast<RowId>(rb)));
    }
  }
  return pairs;
}

TEST(FeaturesTest, HardCellsPlanePathEqualsStringPath) {
  auto [a, b] = HardCellTables();
  Table plane_a = a;
  Table plane_b = b;
  TokenizedTable::BuildAndAttach(plane_a, plane_b);
  ASSERT_NE(SharedTextPlane(plane_a, plane_b), nullptr);
  ASSERT_EQ(SharedTextPlane(a, b), nullptr);

  PairFeatureExtractor strings(&a, &b);
  PairFeatureExtractor spans(&plane_a, &plane_b);
  const size_t nf = strings.num_features();
  ASSERT_EQ(spans.num_features(), nf);
  const std::vector<PairId> pairs = AllPairs(a, b);
  std::vector<double> want(pairs.size() * nf);
  strings.ExtractBatch(pairs.data(), pairs.size(), size_t{1}, want.data());
  // Pair by pair (each call codes its two rows), then one batch (each
  // distinct row coded once).
  std::vector<double> single;
  for (PairId pair : pairs) {
    FeatureVector f = spans.Extract(pair);
    single.insert(single.end(), f.begin(), f.end());
  }
  ExpectSameFeatures(single, want, nf);
  std::vector<double> batch(pairs.size() * nf);
  spans.ExtractBatch(pairs.data(), pairs.size(), size_t{1}, batch.data());
  ExpectSameFeatures(batch, want, nf);
}

// Features over a generated product pair (long descriptions), with a plane.
struct ProductPair {
  Table a;
  Table b;
  std::vector<PairId> pairs;
};

ProductPair MakeProductPair() {
  datagen::GeneratedDataset dataset = datagen::GenerateAmazonGoogle(
      datagen::ScaleDims(datagen::kDimsAmazonGoogle, 0.1));
  ProductPair out{dataset.table_a, dataset.table_b, {}};
  TokenizedTable::BuildAndAttach(out.a, out.b);
  Rng rng(5);
  for (size_t i = 0; i < 600; ++i) {
    out.pairs.push_back(
        MakePairId(static_cast<RowId>(rng.NextBelow(out.a.num_rows() / 3)),
                   static_cast<RowId>(rng.NextBelow(out.b.num_rows() / 3))));
  }
  return out;
}

TEST(FeaturesTest, ThreadCountAndBatchingNeverChangeFeatures) {
  ProductPair product = MakeProductPair();
  ASSERT_NE(SharedTextPlane(product.a, product.b), nullptr);
  const std::vector<PairId>& pairs = product.pairs;

  // The reference: pair by pair, each call coding its own two rows.
  PairFeatureExtractor reference_extractor(&product.a, &product.b);
  const size_t nf = reference_extractor.num_features();
  std::vector<double> reference;
  for (PairId pair : pairs) {
    FeatureVector f = reference_extractor.Extract(pair);
    reference.insert(reference.end(), f.begin(), f.end());
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    PairFeatureExtractor extractor(&product.a, &product.b);
    // Two batches over one extractor, the second overlapping the first:
    // each codes its own rows and keeps nothing for the other.
    const size_t half = pairs.size() / 2;
    std::vector<double> first(half * nf);
    extractor.ExtractBatch(pairs.data(), half, threads, first.data());
    ExpectSameFeatures(
        first, std::vector<double>(reference.begin(),
                                   reference.begin() + half * nf),
        nf);
    std::vector<double> all(pairs.size() * nf);
    extractor.ExtractBatch(pairs.data(), pairs.size(), threads, all.data());
    ExpectSameFeatures(all, reference, nf);
    std::vector<double> single;
    for (PairId pair : pairs) {
      FeatureVector f = extractor.Extract(pair);
      single.insert(single.end(), f.begin(), f.end());
    }
    ExpectSameFeatures(single, reference, nf);
  }
}

TEST(FeaturesTest, ConcurrentBatchesOnOneExtractorAgree) {
  ProductPair product = MakeProductPair();
  const std::vector<PairId>& pairs = product.pairs;
  PairFeatureExtractor reference_extractor(&product.a, &product.b);
  const size_t nf = reference_extractor.num_features();
  std::vector<double> reference(pairs.size() * nf);
  reference_extractor.ExtractBatch(pairs.data(), pairs.size(), size_t{1},
                                   reference.data());

  // Two callers, each with its own pool, extract overlapping rows on one
  // extractor at once; a third extracts pair by pair meanwhile.
  PairFeatureExtractor extractor(&product.a, &product.b);
  std::vector<double> forward(pairs.size() * nf);
  std::vector<PairId> reversed(pairs.rbegin(), pairs.rend());
  std::vector<double> backward(pairs.size() * nf);
  std::vector<double> single(pairs.size() * nf);
  std::thread t1([&] {
    ThreadPool pool(2, "feat-test-1");
    extractor.ExtractBatch(pairs.data(), pairs.size(), &pool,
                           forward.data());
  });
  std::thread t2([&] {
    ThreadPool pool(2, "feat-test-2");
    extractor.ExtractBatch(reversed.data(), reversed.size(), &pool,
                           backward.data());
  });
  std::thread t3([&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      extractor.ExtractInto(pairs[i], single.data() + i * nf);
    }
  });
  t1.join();
  t2.join();
  t3.join();
  ExpectSameFeatures(forward, reference, nf);
  ExpectSameFeatures(single, reference, nf);
  std::vector<double> unreversed(pairs.size() * nf);
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::copy(backward.begin() + (pairs.size() - 1 - i) * nf,
              backward.begin() + (pairs.size() - i) * nf,
              unreversed.begin() + i * nf);
  }
  ExpectSameFeatures(unreversed, reference, nf);
}

// Synthetic separable data: positives around (0.8, 0.9), negatives around
// (0.2, 0.1), with a little noise.
void MakeSeparableData(Rng& rng, size_t n,
                       std::vector<FeatureVector>* features,
                       std::vector<int>* labels) {
  for (size_t i = 0; i < n; ++i) {
    bool positive = rng.NextBool(0.5);
    double base = positive ? 0.8 : 0.2;
    features->push_back(
        {base + (rng.NextDouble() - 0.5) * 0.2,
         (positive ? 0.9 : 0.1) + (rng.NextDouble() - 0.5) * 0.2,
         rng.NextDouble()});  // Third feature is pure noise.
    labels->push_back(positive ? 1 : 0);
  }
}

TEST(DecisionTreeTest, LearnsSeparableData) {
  Rng rng(10);
  std::vector<FeatureVector> features;
  std::vector<int> labels;
  MakeSeparableData(rng, 200, &features, &labels);
  std::vector<size_t> all(features.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  TreeParams params;
  params.features_per_split = 3;  // Use every feature.
  DecisionTree tree = DecisionTree::Train(features, labels, all, params, rng);
  size_t correct = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    if (tree.PredictMatch(features[i]) == (labels[i] == 1)) ++correct;
  }
  EXPECT_GT(correct, features.size() * 95 / 100);
}

TEST(DecisionTreeTest, PureNodeIsLeaf) {
  Rng rng(11);
  std::vector<FeatureVector> features{{0.1}, {0.2}, {0.3}};
  std::vector<int> labels{1, 1, 1};
  DecisionTree tree =
      DecisionTree::Train(features, labels, {0, 1, 2}, TreeParams{}, rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictProbability({0.9}), 1.0);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Rng rng(12);
  // Alternating labels force deep splits if allowed.
  std::vector<FeatureVector> features;
  std::vector<int> labels;
  std::vector<size_t> all;
  for (size_t i = 0; i < 64; ++i) {
    features.push_back({static_cast<double>(i)});
    labels.push_back(static_cast<int>(i % 2));
    all.push_back(i);
  }
  TreeParams params;
  params.max_depth = 2;
  params.features_per_split = 1;
  DecisionTree tree = DecisionTree::Train(features, labels, all, params, rng);
  // Depth 2 -> at most 7 nodes.
  EXPECT_LE(tree.num_nodes(), 7u);
}

TEST(RandomForestTest, ConfidenceSeparatesClasses) {
  Rng rng(13);
  std::vector<FeatureVector> features;
  std::vector<int> labels;
  MakeSeparableData(rng, 300, &features, &labels);
  ForestParams params;
  params.num_trees = 16;
  params.seed = 99;
  RandomForest forest = RandomForest::Train(features, labels, params);
  EXPECT_TRUE(forest.trained());
  EXPECT_EQ(forest.num_trees(), 16u);
  EXPECT_GT(forest.Confidence({0.85, 0.9, 0.5}), 0.8);
  EXPECT_LT(forest.Confidence({0.15, 0.1, 0.5}), 0.2);
  // A point straddling the boundary should be more controversial than a
  // clear positive.
  EXPECT_LT(forest.Controversy({0.5, 0.5, 0.5}),
            forest.Controversy({0.9, 0.95, 0.5}) + 1e-9);
}

TEST(RandomForestTest, Deterministic) {
  Rng rng(14);
  std::vector<FeatureVector> features;
  std::vector<int> labels;
  MakeSeparableData(rng, 100, &features, &labels);
  ForestParams params;
  params.num_trees = 8;
  params.seed = 7;
  RandomForest f1 = RandomForest::Train(features, labels, params);
  RandomForest f2 = RandomForest::Train(features, labels, params);
  for (const FeatureVector& sample : features) {
    EXPECT_DOUBLE_EQ(f1.Confidence(sample), f2.Confidence(sample));
  }
}

TEST(RandomForestTest, SingleClassTraining) {
  std::vector<FeatureVector> features{{0.1}, {0.2}};
  std::vector<int> labels{1, 1};
  ForestParams params;
  params.num_trees = 4;
  RandomForest forest = RandomForest::Train(features, labels, params);
  EXPECT_DOUBLE_EQ(forest.Confidence({0.15}), 1.0);
}

}  // namespace
}  // namespace mc
