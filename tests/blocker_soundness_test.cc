// The prefix-filter join's length and positional filters must never drop a
// qualifying pair: every indexed blocker output equals the naive all-pairs
// evaluation, on boundary cases built to land exactly on the threshold, on
// q-gram multisets with repeated grams, and on the paper's blockers over
// small generated datasets — each with and without the shared text plane.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/executors.h"
#include "blocking/predicate.h"
#include "datagen/generator.h"
#include "paper_blockers.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace mc {
namespace {

constexpr SetMeasure kMeasures[] = {SetMeasure::kJaccard, SetMeasure::kCosine,
                                    SetMeasure::kDice,
                                    SetMeasure::kOverlapCoefficient};

void ExpectSamePairs(const CandidateSet& expected, const CandidateSet& actual,
                     const std::string& label) {
  EXPECT_EQ(expected.SortedPairs(), actual.SortedPairs()) << label;
}

Table OneColumnTable(const std::vector<std::string>& values) {
  Table table(Schema({{"text", AttributeType::kString}}));
  for (const std::string& value : values) table.AddRow({value});
  return table;
}

// Every nonempty subset of six words, one subset per row: the pairs cover
// every (|x|, |y|, overlap) combination up to 6, so each threshold below
// meets pairs whose similarity lands exactly on it, and the word order
// varies the document-frequency ranks.
std::vector<std::string> WordSubsets(const std::vector<std::string>& words) {
  std::vector<std::string> rows;
  for (unsigned mask = 1; mask < (1u << words.size()); ++mask) {
    std::string row;
    for (size_t i = 0; i < words.size(); ++i) {
      if ((mask & (1u << i)) == 0) continue;
      if (!row.empty()) row += " ";
      row += words[i];
    }
    rows.push_back(row);
  }
  return rows;
}

// Runs `indexed` against the naive evaluation of `predicate`, without and
// then with the text plane attached (the plane changes the token ids and
// the code path that tokenizes, never the answer).
template <typename Predicate, typename Enumerate>
void CheckBothPaths(Table a, Table b, const Predicate& predicate,
                    Enumerate indexed, const std::string& label) {
  const CandidateSet naive =
      NaiveBlocker(std::make_shared<Predicate>(predicate)).Run(a, b);
  ExpectSamePairs(naive, indexed(a, b, predicate), label + " / strings");
  TokenizedTable::BuildAndAttach(a, b);
  ExpectSamePairs(naive, indexed(a, b, predicate), label + " / plane");
}

TEST(PrefixFilterSoundnessTest, ThresholdBoundariesForEveryMeasure) {
  const Table a = OneColumnTable(
      WordSubsets({"red", "green", "blue", "cyan", "plum", "teal"}));
  const Table b = OneColumnTable(
      WordSubsets({"teal", "blue", "red", "gold", "plum", "green"}));
  for (SetMeasure measure : kMeasures) {
    for (double threshold :
         {0.25, 1.0 / 3.0, 0.4, 0.5, 0.6, 2.0 / 3.0, 0.75, 0.8, 1.0}) {
      CheckBothPaths(a, b,
                     SetSimilarityPredicate(0, TokenizerSpec::Word(), measure,
                                            threshold),
                     EnumerateSetSimilarity,
                     std::string(SetMeasureName(measure)) + " @ " +
                         std::to_string(threshold));
    }
  }
  for (size_t min_overlap : {1u, 2u, 4u, 6u}) {
    CheckBothPaths(a, b,
                   OverlapPredicate(0, TokenizerSpec::Word(), min_overlap),
                   EnumerateOverlap,
                   "overlap >= " + std::to_string(min_overlap));
  }
}

// Named pairs that sit exactly on the threshold, including on the length
// filter's edge (|x|/|y| equal to the measure's minimum size ratio).
TEST(PrefixFilterSoundnessTest, PairsExactlyOnTheThresholdAreKept) {
  struct Case {
    SetMeasure measure;
    double threshold;
    std::string a;
    std::string b;
  };
  const std::vector<Case> cases = {
      // 3 / 5 = 0.6, and |x| / |y| = 0.6 is the Jaccard size ratio.
      {SetMeasure::kJaccard, 0.6, "p q r", "p q r s t"},
      // 1 / sqrt(1 * 4) = 0.5, and 1 / 4 is the cosine ratio 0.5^2.
      {SetMeasure::kCosine, 0.5, "p", "p q r s"},
      // 3 / sqrt(5 * 5) = 0.6.
      {SetMeasure::kCosine, 0.6, "p q r s t", "p q r u v"},
      // 2 * 1 / (1 + 3) = 0.5, and 1 / 3 is the Dice ratio 0.5 / 1.5.
      {SetMeasure::kDice, 0.5, "p", "p q r"},
      // 1 / min(2, 5) = 0.5: no length filter applies.
      {SetMeasure::kOverlapCoefficient, 0.5, "p q", "p r s t u"},
  };
  for (const Case& c : cases) {
    const Table a = OneColumnTable({c.a, "unrelated words only"});
    const Table b = OneColumnTable({"nothing shared here", c.b});
    const SetSimilarityPredicate predicate(0, TokenizerSpec::Word(),
                                           c.measure, c.threshold);
    const std::string label = std::string(SetMeasureName(c.measure)) +
                              " @ " + std::to_string(c.threshold);
    ASSERT_TRUE(predicate.Evaluate(a, 0, b, 1)) << label;
    EXPECT_TRUE(EnumerateSetSimilarity(a, b, predicate).Contains(0, 1))
        << label;
    CheckBothPaths(a, b, predicate, EnumerateSetSimilarity, label);
  }
}

// Repeated grams: "aaaaaa" holds the 2-gram "aa" five times, which a cell
// keeps once. Were cells multisets, the positional filter's match count
// would overcount repeated grams, sound only as an upper bound; these rows
// stress the filters on such values either way.
TEST(PrefixFilterSoundnessTest, QGramMultisetsWithRepeatedGrams) {
  const std::vector<std::string> values = {
      "aaaaaa", "aaaa",   "aaaaaaaaaa", "aaab",     "abababab", "ababab",
      "baba",   "ab",     "abab aaaa",  "bbbbbbbb", "abba",     "a",
      "aabbaabb", "ba ba", "abababababab", "aaaaab"};
  const Table a = OneColumnTable(values);
  const Table b = OneColumnTable(values);
  for (size_t q : {2u, 3u}) {
    for (SetMeasure measure : kMeasures) {
      for (double threshold : {0.3, 0.5, 0.6, 0.75, 0.9}) {
        CheckBothPaths(a, b,
                       SetSimilarityPredicate(0, TokenizerSpec::QGram(q),
                                              measure, threshold),
                       EnumerateSetSimilarity,
                       std::to_string(q) + "gram " +
                           SetMeasureName(measure) + " @ " +
                           std::to_string(threshold));
      }
    }
    for (size_t min_overlap : {1u, 3u, 5u}) {
      CheckBothPaths(a, b,
                     OverlapPredicate(0, TokenizerSpec::QGram(q), min_overlap),
                     EnumerateOverlap,
                     std::to_string(q) + "gram overlap >= " +
                         std::to_string(min_overlap));
    }
  }
}

// The least overlap a pair of sizes (x, y) needs: the exact alpha, found
// by search over the exact predicate; min(x, y) + 1 when none qualifies.
size_t ExactAlpha(SetMeasure measure, double threshold, size_t x, size_t y) {
  const size_t most = std::min(x, y);
  for (size_t overlap = 0; overlap <= most; ++overlap) {
    if (SetSimilarityFromCounts(measure, x, y, overlap) >= threshold) {
      return overlap;
    }
  }
  return most + 1;
}

// `count` tokens "<tag><i>" for i in [first, first + count), space-joined.
std::string TaggedTokens(const std::string& tag, size_t first, size_t count) {
  std::string out;
  for (size_t i = first; i < first + count; ++i) {
    if (!out.empty()) out += ' ';
    out += tag;
    out += std::to_string(i);
  }
  return out;
}

// Pairs whose overlap is alpha - 1, alpha and alpha + 1 for every size pair
// up to 6 and every measure: row i of A and row i of B form case i (with
// case-private tokens, so rows of different cases share nothing), and the
// join must keep exactly the cases at or above alpha. Overlap predicates
// use alpha = min_overlap.
TEST(PrefixFilterSoundnessTest, OverlapsAroundAlphaForEveryMeasure) {
  struct Expected {
    Table a = OneColumnTable({});
    Table b = OneColumnTable({});
    CandidateSet kept;
  };
  auto add_case = [](Expected& cases, size_t x, size_t y, size_t overlap,
                     bool keep) {
    const RowId row = static_cast<RowId>(cases.a.num_rows());
    std::string tag = "c";
    tag += std::to_string(row);
    const std::string shared = TaggedTokens(tag + "s", 0, overlap);
    std::string a = shared;
    std::string b = shared;
    a += ' ';
    a += TaggedTokens(tag + "a", 0, x - overlap);
    b += ' ';
    b += TaggedTokens(tag + "b", 0, y - overlap);
    cases.a.AddRow({a});
    cases.b.AddRow({b});
    if (keep) cases.kept.Add(row, row);
  };
  auto check = [](Expected& cases, auto enumerate, const auto& predicate,
                  const std::string& label) {
    ExpectSamePairs(cases.kept, enumerate(cases.a, cases.b, predicate),
                    label + " / strings");
    TokenizedTable::BuildAndAttach(cases.a, cases.b);
    ExpectSamePairs(cases.kept, enumerate(cases.a, cases.b, predicate),
                    label + " / plane");
  };
  for (SetMeasure measure : kMeasures) {
    for (double threshold : {0.3, 0.5, 0.6, 0.75, 0.9}) {
      // B sizes descend, so an alpha cached for one B row and wrongly
      // reused for a later, smaller one would be too large and drop pairs.
      Expected cases;
      for (size_t x = 1; x <= 6; ++x) {
        for (size_t y = 6; y >= 1; --y) {
          const size_t alpha = ExactAlpha(measure, threshold, x, y);
          for (size_t overlap = alpha == 0 ? 0 : alpha - 1;
               overlap <= alpha + 1 && overlap <= std::min(x, y);
               ++overlap) {
            add_case(cases, x, y, overlap, overlap >= alpha);
          }
        }
      }
      check(cases, EnumerateSetSimilarity,
            SetSimilarityPredicate(0, TokenizerSpec::Word(), measure,
                                   threshold),
            std::string(SetMeasureName(measure)) + " @ " +
                std::to_string(threshold));
    }
  }
  for (size_t min_overlap : {1u, 2u, 3u, 5u}) {
    Expected cases;
    for (size_t x = 1; x <= 6; ++x) {
      for (size_t y = 6; y >= 1; --y) {
        for (size_t overlap = min_overlap - 1;
             overlap <= min_overlap + 1 && overlap <= std::min(x, y);
             ++overlap) {
          add_case(cases, x, y, overlap, overlap >= min_overlap);
        }
      }
    }
    check(cases, EnumerateOverlap,
          OverlapPredicate(0, TokenizerSpec::Word(), min_overlap),
          "overlap >= " + std::to_string(min_overlap));
  }
}

// The join's alpha rounds the real bound down by a 1e-9 slack, so at a
// threshold a hair above a value whose bound is an integer, a pair can
// have overlap == alpha and still fall short of the threshold. Only the
// exact Verify rejects such a pair; these cases fail if it is skipped.
TEST(PrefixFilterSoundnessTest, OverlapAtAlphaStillVerifiesExactly) {
  struct Case {
    SetMeasure measure;
    double threshold;
    std::string a;
    std::string b;
    double bound;  // The real-valued alpha bound of the pair's sizes.
  };
  const double eps = 1e-12;
  const std::vector<Case> cases = {
      // 2 / 4 = 0.5 < t; bound t * 6 / (1 + t) = 2 + 2.2e-12.
      {SetMeasure::kJaccard, 0.5 + eps, "p q r", "p q s",
       (0.5 + eps) * 6 / (1.5 + eps)},
      // 2 / sqrt(4 * 4) = 0.5 < t; bound t * 4 = 2 + 4e-12.
      {SetMeasure::kCosine, 0.5 + eps, "p q r s", "p q t u", (0.5 + eps) * 4},
      // 2 * 2 / 6 < t; bound t * 6 / 2 = 2 + 3e-12.
      {SetMeasure::kDice, 2.0 / 3.0 + eps, "p q r", "p q s",
       (2.0 / 3.0 + eps) * 3},
      // 2 / min(4, 4) = 0.5 < t; bound t * 4 = 2 + 4e-12.
      {SetMeasure::kOverlapCoefficient, 0.5 + eps, "p q r s", "p q t u",
       (0.5 + eps) * 4},
  };
  for (const Case& c : cases) {
    const std::string label = std::string(SetMeasureName(c.measure));
    // The join's alpha (the bound less the slack, rounded up) is 2, the
    // pair's overlap; the exact least qualifying overlap is 3.
    ASSERT_GT(c.bound, 2.0) << label;
    ASSERT_EQ(std::ceil(c.bound - 1e-9), 2.0) << label;
    Table a = OneColumnTable({c.a});
    Table b = OneColumnTable({c.b});
    const SetSimilarityPredicate predicate(0, TokenizerSpec::Word(),
                                           c.measure, c.threshold);
    ASSERT_FALSE(predicate.Evaluate(a, 0, b, 0)) << label;
    EXPECT_TRUE(EnumerateSetSimilarity(a, b, predicate).empty())
        << label << " / strings";
    TokenizedTable::BuildAndAttach(a, b);
    EXPECT_TRUE(EnumerateSetSimilarity(a, b, predicate).empty())
        << label << " / plane";
  }
}

// Repeated-gram q-gram cells at thresholds equal to similarities the pairs
// actually reach: every such pair sits at overlap exactly alpha, and pairs
// of the same sizes one gram short sit at alpha - 1.
TEST(PrefixFilterSoundnessTest, QGramMultisetsAtRealizedThresholds) {
  const std::vector<std::string> values = {
      "aaaaaa", "aaaa", "aaab", "abababab", "ababab", "baba", "abab aaaa",
      "abba", "aabbaabb", "ba ba", "aaaaab", "bbbb"};
  const Table a = OneColumnTable(values);
  const Table b = OneColumnTable(values);
  for (size_t q : {2u, 3u}) {
    std::vector<std::vector<std::string>> grams;
    for (const std::string& value : values) {
      grams.push_back(QGrams(value, q));
    }
    for (SetMeasure measure : kMeasures) {
      std::set<double> realized;
      for (const auto& x : grams) {
        for (const auto& y : grams) {
          size_t overlap = 0;
          for (const std::string& gram : x) {
            overlap += std::count(y.begin(), y.end(), gram);
          }
          realized.insert(
              SetSimilarityFromCounts(measure, x.size(), y.size(), overlap));
        }
      }
      for (double threshold : realized) {
        if (threshold <= 0.0) continue;
        CheckBothPaths(a, b,
                       SetSimilarityPredicate(0, TokenizerSpec::QGram(q),
                                              measure, threshold),
                       EnumerateSetSimilarity,
                       std::to_string(q) + "gram " +
                           SetMeasureName(measure) + " @ " +
                           std::to_string(threshold));
      }
    }
  }
}

// The union of the members' (or rule's) per-pair decisions over all of
// A x B — the naive evaluation of any pair-decomposable blocker.
CandidateSet NaiveRun(const Blocker& blocker, const Table& a, const Table& b) {
  CandidateSet kept;
  for (size_t row_a = 0; row_a < a.num_rows(); ++row_a) {
    for (size_t row_b = 0; row_b < b.num_rows(); ++row_b) {
      const std::optional<bool> keeps = blocker.KeepsPair(a, row_a, b, row_b);
      EXPECT_TRUE(keeps.has_value());
      if (keeps.value_or(false)) {
        kept.Add(static_cast<RowId>(row_a), static_cast<RowId>(row_b));
      }
    }
  }
  return kept;
}

TEST(PaperBlockerSoundnessTest, EveryPaperBlockerMatchesNaive) {
  constexpr datagen::DatasetDims kDims{40, 60, 30};
  struct Dataset {
    std::string name;
    datagen::GeneratedDataset data;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"A-G", datagen::GenerateAmazonGoogle(kDims, 7)});
  datasets.push_back({"W-A", datagen::GenerateWalmartAmazon(kDims, 8)});
  datasets.push_back({"F-Z", datagen::GenerateFodorsZagats(kDims, 9)});
  datasets.push_back({"M1", datagen::GenerateMusic(kDims, 10)});
  for (Dataset& dataset : datasets) {
    Table& a = dataset.data.table_a;
    Table& b = dataset.data.table_b;
    const std::vector<bench::PaperBlocker> blockers =
        bench::PaperBlockersFor(dataset.name, a.schema());
    std::vector<CandidateSet> naive;
    for (const bench::PaperBlocker& blocker : blockers) {
      naive.push_back(NaiveRun(*blocker.blocker, a, b));
      ExpectSamePairs(naive.back(), blocker.blocker->Run(a, b),
                      dataset.name + " " + blocker.label + " / strings");
    }
    TokenizedTable::BuildAndAttach(a, b);
    for (size_t i = 0; i < blockers.size(); ++i) {
      ExpectSamePairs(naive[i], blockers[i].blocker->Run(a, b),
                      dataset.name + " " + blockers[i].label + " / plane");
    }
  }
}

}  // namespace
}  // namespace mc
