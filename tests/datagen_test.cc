#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/metrics.h"
#include "datagen/corruption.h"
#include "datagen/generator.h"
#include "datagen/vocabulary.h"
#include "text/similarity.h"
#include "util/random.h"

namespace mc {
namespace {

using datagen::DatasetDims;
using datagen::GeneratedDataset;

TEST(CorruptionTest, TypoChangesAtMostOneEdit) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    std::string original = "charles williams";
    std::string corrupted = datagen::InjectTypo(original, rng);
    EXPECT_LE(EditDistance(original, corrupted), 2u);  // Swap = 2 edits.
  }
}

TEST(CorruptionTest, AbbreviateWord) {
  Rng rng(2);
  std::string out = datagen::AbbreviateWord("david smith", rng);
  EXPECT_TRUE(out == "d. smith" || out == "david s.") << out;
}

TEST(CorruptionTest, DropAndSwap) {
  Rng rng(3);
  EXPECT_EQ(datagen::DropWord("single", rng), "single");
  std::string dropped = datagen::DropWord("alpha beta", rng);
  EXPECT_TRUE(dropped == "alpha" || dropped == "beta");
  EXPECT_EQ(datagen::SwapWords("alpha beta", rng), "beta alpha");
  EXPECT_EQ(datagen::SwapWords("one", rng), "one");
}

TEST(CorruptionTest, CaseOperations) {
  Rng rng(4);
  EXPECT_EQ(datagen::UpperCase("love song"), "LOVE SONG");
  std::string jumbled = datagen::JumbleCase("love song", rng);
  // Same letters ignoring case.
  EXPECT_EQ(datagen::UpperCase(jumbled), "LOVE SONG");
}

TEST(CorruptionTest, VariantsRoundTrip) {
  EXPECT_EQ(datagen::ApplyVariant("new york"), "ny");
  EXPECT_EQ(datagen::ApplyVariant("ny"), "new york");
  EXPECT_EQ(datagen::ApplyVariant("123 main street"), "123 main st");
  EXPECT_EQ(datagen::ApplyVariant("no variant here at all"),
            "no variant here at all");
}

TEST(CorruptionTest, PerturbNumberWithinJitter) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string out = datagen::PerturbNumber(100.0, 0.3, rng);
    double value = ParseDouble(out).value();
    EXPECT_GE(value, 69.9);
    EXPECT_LE(value, 130.1);
  }
}

TEST(VocabularyTest, VariantLookupAndJoin) {
  EXPECT_EQ(datagen::ValueVariant("hewlett packard"), "hp");
  EXPECT_EQ(datagen::ValueVariant("zzz"), "");
  EXPECT_EQ(datagen::JoinWords({"a", "b", "c"}), "a b c");
  EXPECT_EQ(datagen::JoinWords({}), "");
}

struct NamedDims {
  const char* name;
  DatasetDims dims;
  size_t expected_attrs;
};

// Without this, gtest prints the raw bytes of the param, which include the
// address of `name`; the registered test names would then change every run.
void PrintTo(const NamedDims& param, std::ostream* os) { *os << param.name; }

class GeneratorTest : public ::testing::TestWithParam<NamedDims> {};

TEST_P(GeneratorTest, ShapeAndGoldInvariants) {
  const NamedDims& param = GetParam();
  Result<GeneratedDataset> result =
      datagen::GenerateByName(param.name, /*scale=*/1.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GeneratedDataset& dataset = result.value();

  EXPECT_EQ(dataset.table_a.num_rows(), param.dims.rows_a);
  EXPECT_EQ(dataset.table_b.num_rows(), param.dims.rows_b);
  EXPECT_EQ(dataset.gold.size(), param.dims.matches);
  EXPECT_EQ(dataset.table_a.schema().size(), param.expected_attrs);
  EXPECT_TRUE(dataset.table_a.schema() == dataset.table_b.schema());

  // Gold pairs reference valid rows; at most one match per A row (1-1).
  std::unordered_set<RowId> rows_a, rows_b;
  for (PairId pair : dataset.gold) {
    RowId row_a = PairRowA(pair);
    RowId row_b = PairRowB(pair);
    EXPECT_LT(row_a, dataset.table_a.num_rows());
    EXPECT_LT(row_b, dataset.table_b.num_rows());
    EXPECT_TRUE(rows_a.insert(row_a).second);
    EXPECT_TRUE(rows_b.insert(row_b).second);
  }

  // Problem tags only refer to gold pairs.
  for (const auto& [pair, tags] : dataset.problem_tags) {
    EXPECT_TRUE(dataset.gold.Contains(pair));
    EXPECT_FALSE(tags.empty());
  }
  EXPECT_GT(dataset.problem_tags.size(), 0u);
}

TEST_P(GeneratorTest, MatchedPairsAreTextuallyClose) {
  const NamedDims& param = GetParam();
  Result<GeneratedDataset> result = datagen::GenerateByName(param.name, 1.0);
  ASSERT_TRUE(result.ok());
  const GeneratedDataset& dataset = result.value();
  // Average word-jaccard of the concatenated records over gold pairs should
  // far exceed that of random pairs.
  auto record_text = [](const Table& table, size_t row) {
    std::string text;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      text += std::string(table.Value(row, c)) + " ";
    }
    return text;
  };
  double gold_sim = 0.0;
  size_t count = 0;
  for (PairId pair : dataset.gold) {
    if (count == 50) break;
    gold_sim += WordJaccard(record_text(dataset.table_a, PairRowA(pair)),
                            record_text(dataset.table_b, PairRowB(pair)));
    ++count;
  }
  gold_sim /= count;

  Rng rng(17);
  double random_sim = 0.0;
  for (int i = 0; i < 50; ++i) {
    random_sim += WordJaccard(
        record_text(dataset.table_a,
                    rng.NextBelow(dataset.table_a.num_rows())),
        record_text(dataset.table_b,
                    rng.NextBelow(dataset.table_b.num_rows())));
  }
  random_sim /= 50;
  EXPECT_GT(gold_sim, random_sim + 0.15)
      << param.name << ": gold " << gold_sim << " random " << random_sim;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, GeneratorTest,
    ::testing::Values(
        NamedDims{"A-G", datagen::kDimsAmazonGoogle, 5},
        NamedDims{"W-A", datagen::kDimsWalmartAmazon, 7},
        NamedDims{"A-D", datagen::kDimsAcmDblp, 5},
        NamedDims{"F-Z", datagen::kDimsFodorsZagats, 7}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(GeneratorTest, MusicScalesAndNames) {
  Result<GeneratedDataset> m1 = datagen::GenerateByName("M1", 0.02);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->name, "M1");
  EXPECT_EQ(m1->table_a.num_rows(), 2000u);
  EXPECT_EQ(m1->table_a.schema().size(), 8u);

  Result<GeneratedDataset> papers = datagen::GenerateByName("Papers", 0.005);
  ASSERT_TRUE(papers.ok());
  EXPECT_EQ(papers->name, "Papers");
  EXPECT_EQ(papers->table_a.schema().size(), 7u);
}

TEST(GeneratorTest, Deterministic) {
  GeneratedDataset x = datagen::GenerateFodorsZagats();
  GeneratedDataset y = datagen::GenerateFodorsZagats();
  ASSERT_EQ(x.table_a.num_rows(), y.table_a.num_rows());
  for (size_t r = 0; r < x.table_a.num_rows(); ++r) {
    for (size_t c = 0; c < x.table_a.num_columns(); ++c) {
      ASSERT_EQ(x.table_a.Value(r, c), y.table_a.Value(r, c));
    }
  }
  EXPECT_EQ(x.gold.size(), y.gold.size());
}

TEST(GeneratorTest, UnknownNameIsError) {
  Result<GeneratedDataset> result = datagen::GenerateByName("nope");
  EXPECT_FALSE(result.ok());
}

TEST(GeneratorTest, ProblemHistogramSorted) {
  GeneratedDataset dataset = datagen::GenerateFodorsZagats();
  auto histogram = dataset.ProblemHistogram();
  EXPECT_FALSE(histogram.empty());
  for (size_t i = 1; i < histogram.size(); ++i) {
    EXPECT_GE(histogram[i - 1].second, histogram[i].second);
  }
}

TEST(GeneratorTest, ScaleDims) {
  DatasetDims dims{1000, 2000, 100};
  DatasetDims half = datagen::ScaleDims(dims, 0.5);
  EXPECT_EQ(half.rows_a, 500u);
  EXPECT_EQ(half.rows_b, 1000u);
  EXPECT_EQ(half.matches, 50u);
  DatasetDims tiny = datagen::ScaleDims(dims, 0.00001);
  EXPECT_EQ(tiny.rows_a, 1u);
  EXPECT_EQ(tiny.matches, 1u);
}

}  // namespace
}  // namespace mc
