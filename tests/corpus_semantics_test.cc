// Pins the central semantic equivalence of the SSJ machinery: the score a
// config view produces for a pair equals the plain text-level Jaccard of
// the concatenated attribute strings (paper §3.1: convert each tuple into
// str_gamma(a) concatenating the config's attributes, compare with Jaccard
// over word sets).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/random.h"

namespace mc {
namespace {

std::string ConcatConfig(const Table& table, size_t row,
                         const std::vector<size_t>& columns,
                         ConfigMask config) {
  std::string text;
  for (size_t bit = 0; bit < columns.size(); ++bit) {
    if (!ConfigContains(config, bit)) continue;
    text += std::string(table.Value(row, columns[bit])) + " ";
  }
  return text;
}

Table RandomTable(Rng& rng, size_t rows) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"desc", AttributeType::kString}});
  Table table(schema);
  auto words = [&](size_t max) {
    std::string out;
    size_t n = rng.NextBelow(max + 1);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out += ' ';
      out += 'w';
      out += std::to_string(rng.NextZipf(25, 0.9));
    }
    return out;
  };
  for (size_t r = 0; r < rows; ++r) {
    table.AddRow({words(4), words(2), words(7)});
  }
  return table;
}

class CorpusSemanticsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorpusSemanticsTest, ConfigScoreEqualsTextJaccard) {
  Rng rng(GetParam());
  Table a = RandomTable(rng, 25);
  Table b = RandomTable(rng, 25);
  const std::vector<size_t> columns{0, 1, 2};
  SsjCorpus corpus = SsjCorpus::Build(a, b, columns);

  for (ConfigMask config = 1; config < 8; ++config) {
    ConfigView view = corpus.MakeConfigView(config);
    DirectPairScorer scorer(&view, SetMeasure::kJaccard);
    for (RowId i = 0; i < 25; ++i) {
      for (RowId j = 0; j < 25; j += 3) {
        std::string text_a = ConcatConfig(a, i, columns, config);
        std::string text_b = ConcatConfig(b, j, columns, config);
        // The join machinery never scores empty-token tuples; the text
        // convention (both empty -> 1.0) differs there by design.
        if (view.a(i).empty() || view.b(j).empty()) continue;
        double expected = JaccardSimilarity(DistinctWordTokens(text_a),
                                            DistinctWordTokens(text_b));
        EXPECT_NEAR(scorer.Score(i, j), expected, 1e-12)
            << "config " << config << " pair (" << i << "," << j << ")\n"
            << "  a: \"" << text_a << "\"\n  b: \"" << text_b << "\"";
      }
    }
  }
}

TEST_P(CorpusSemanticsTest, ConfigLengthEqualsDistinctTokenCount) {
  Rng rng(GetParam() + 77);
  Table a = RandomTable(rng, 20);
  Table b = RandomTable(rng, 5);
  const std::vector<size_t> columns{0, 1, 2};
  SsjCorpus corpus = SsjCorpus::Build(a, b, columns);
  for (ConfigMask config = 1; config < 8; ++config) {
    ConfigView view = corpus.MakeConfigView(config);
    for (RowId i = 0; i < 20; ++i) {
      std::string text = ConcatConfig(a, i, columns, config);
      EXPECT_EQ(view.a(i).size(), DistinctWordTokens(text).size());
      EXPECT_EQ(SsjCorpus::ConfigLength(corpus.tuple_a(i), config),
                view.a(i).size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusSemanticsTest,
                         ::testing::Values(1001, 2002, 3003));

}  // namespace
}  // namespace mc
