#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/candidate_set.h"
#include "blocking/executors.h"
#include "blocking/metrics.h"
#include "blocking/pair.h"
#include "blocking/rule_blocker.h"
#include "blocking/standard_blockers.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace mc {
namespace {

// The paper's Figure 1 tables.
Table FigureOneTableA() {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"Dave Smith", "Altanta", "18"});        // a1
  table.AddRow({"Daniel Smith", "LA", "18"});           // a2
  table.AddRow({"Joe Welson", "New York", "25"});       // a3
  table.AddRow({"Charles Williams", "Chicago", "45"});  // a4
  table.AddRow({"Charlie William", "Atlanta", "28"});   // a5
  return table;
}

Table FigureOneTableB() {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"David Smith", "Atlanta", "18"});      // b1
  table.AddRow({"Joe Wilson", "NY", "25"});            // b2
  table.AddRow({"Daniel W. Smith", "LA", "30"});       // b3
  table.AddRow({"Charles Williams", "Chicago", "45"});  // b4
  return table;
}

TEST(PairIdTest, PackUnpackRoundTrip) {
  PairId pair = MakePairId(123456, 654321);
  EXPECT_EQ(PairRowA(pair), 123456u);
  EXPECT_EQ(PairRowB(pair), 654321u);
  EXPECT_EQ(MakePairId(0, 0), 0u);
  PairId max_pair = MakePairId(0xFFFFFFFFu, 0xFFFFFFFFu);
  EXPECT_EQ(PairRowA(max_pair), 0xFFFFFFFFu);
  EXPECT_EQ(PairRowB(max_pair), 0xFFFFFFFFu);
}

TEST(CandidateSetTest, BasicOperations) {
  CandidateSet set;
  EXPECT_TRUE(set.empty());
  set.Add(1, 2);
  set.Add(1, 2);
  set.Add(3, 4);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(1, 2));
  EXPECT_FALSE(set.Contains(2, 1));

  CandidateSet other;
  other.Add(3, 4);
  other.Add(5, 6);
  EXPECT_EQ(set.IntersectionSize(other), 1u);
  set.UnionWith(other);
  EXPECT_EQ(set.size(), 3u);

  std::vector<PairId> sorted = set.SortedPairs();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.size(), 3u);
}

TEST(CandidateSetTest, GrowsThroughManyRehashes) {
  CandidateSet set;
  constexpr RowId kRowsA = 400;
  constexpr RowId kRowsB = 300;  // 120k pairs: a dozen doublings.
  for (RowId a = 0; a < kRowsA; ++a) {
    for (RowId b = 0; b < kRowsB; ++b) set.Add(a * 7919u, b * 104729u);
  }
  ASSERT_EQ(set.size(), size_t{kRowsA} * kRowsB);
  for (RowId a = 0; a < kRowsA; ++a) {
    for (RowId b = 0; b < kRowsB; ++b) {
      ASSERT_TRUE(set.Contains(a * 7919u, b * 104729u)) << a << "," << b;
      ASSERT_FALSE(set.Contains(a * 7919u + 1, b * 104729u));
    }
  }
  set.Add(0, 0);  // Re-adding changes nothing.
  EXPECT_EQ(set.size(), size_t{kRowsA} * kRowsB);
}

TEST(CandidateSetTest, IterationVisitsEachPairOnceInSortedPairsSet) {
  CandidateSet set;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    set.Add(static_cast<RowId>(rng.NextBelow(200)),
            static_cast<RowId>(rng.NextBelow(200)));
  }
  std::vector<PairId> visited(set.begin(), set.end());
  EXPECT_EQ(visited.size(), set.size());
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(std::adjacent_find(visited.begin(), visited.end()),
            visited.end());
  EXPECT_EQ(visited, set.SortedPairs());
}

TEST(CandidateSetTest, UnionWithEmptyAndWithItself) {
  CandidateSet set;
  for (RowId i = 0; i < 100; ++i) set.Add(i, i + 1);
  const std::vector<PairId> before = set.SortedPairs();

  CandidateSet empty;
  set.UnionWith(empty);
  EXPECT_EQ(set.SortedPairs(), before);
  empty.UnionWith(set);
  EXPECT_EQ(empty.SortedPairs(), before);

  set.UnionWith(set);
  EXPECT_EQ(set.size(), 100u);
  EXPECT_EQ(set.SortedPairs(), before);
}

TEST(CandidateSetTest, DefaultConstructedSetIsEmpty) {
  const CandidateSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(0, 0));
  EXPECT_FALSE(set.Contains(MakePairId(5, 7)));
  EXPECT_TRUE(set.begin() == set.end());
  EXPECT_TRUE(set.SortedPairs().empty());
  CandidateSet other;
  other.Add(1, 1);
  EXPECT_EQ(set.IntersectionSize(other), 0u);
  EXPECT_EQ(other.IntersectionSize(set), 0u);
}

TEST(CandidateSetTest, RowIdsNearTheTopOfTheRange) {
  constexpr RowId kMax = 0xFFFFFFFFu;
  const std::vector<PairId> pairs = {
      MakePairId(kMax, kMax - 1), MakePairId(kMax - 1, kMax),
      MakePairId(kMax, 0),        MakePairId(0, kMax),
      MakePairId(kMax - 1, kMax - 1)};
  CandidateSet set;
  set.Reserve(pairs.size());
  for (PairId pair : pairs) set.Add(pair);
  EXPECT_EQ(set.size(), pairs.size());
  for (PairId pair : pairs) EXPECT_TRUE(set.Contains(pair));
  EXPECT_FALSE(set.Contains(kMax - 2, kMax));
  std::vector<PairId> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(set.SortedPairs(), sorted);
}

// The all-ones pair is the empty-slot marker; adding it is a programming
// error. Death tests and sanitizer runtimes do not mix (see util_test.cc).
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
TEST(CandidateSetDeathTest, ReservedPairIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  CandidateSet set;
  ASSERT_DEATH(set.Add(0xFFFFFFFFu, 0xFFFFFFFFu), "kEmpty");
}
#endif

TEST(CandidateSetTest, CopyAndMove) {
  CandidateSet original;
  for (RowId i = 0; i < 50; ++i) original.Add(i, 2 * i);

  CandidateSet copy = original;
  copy.Add(1000, 1000);
  EXPECT_EQ(original.size(), 50u);
  EXPECT_FALSE(original.Contains(1000, 1000));
  EXPECT_EQ(copy.size(), 51u);

  CandidateSet moved = std::move(copy);
  EXPECT_EQ(moved.size(), 51u);
  EXPECT_TRUE(moved.Contains(1000, 1000));
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(copy.Contains(1000, 1000));
  copy.Add(3, 3);  // A moved-from set is reusable.
  EXPECT_EQ(copy.size(), 1u);

  CandidateSet assigned;
  assigned.Add(9, 9);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 51u);
  EXPECT_FALSE(assigned.Contains(9, 9));
  assigned = original;
  EXPECT_EQ(assigned.SortedPairs(), original.SortedPairs());
}

TEST(FigureOneTest, CityEquivalenceBlockerMatchesPaper) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  // Q1: a.City = b.City -> C1 = {(a2,b3), (a4,b4), (a5,b1)}.
  auto blocker = HashBlocker::AttributeEquivalence(1);
  CandidateSet c1 = blocker->Run(a, b);
  EXPECT_EQ(c1.size(), 3u);
  EXPECT_TRUE(c1.Contains(1, 2));  // (a2, b3): LA.
  EXPECT_TRUE(c1.Contains(3, 3));  // (a4, b4): Chicago.
  EXPECT_TRUE(c1.Contains(4, 0));  // (a5, b1): Atlanta.
  // True matches (a1,b1) and (a3,b2) are killed off.
  EXPECT_FALSE(c1.Contains(0, 0));
  EXPECT_FALSE(c1.Contains(2, 1));
}

TEST(FigureOneTest, SecondBlockerKeepsA1B1) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  // Q2: a.City = b.City OR lastword(a.Name) = lastword(b.Name).
  auto q2 = std::make_shared<UnionBlocker>(
      std::vector<std::shared_ptr<const Blocker>>{
          HashBlocker::AttributeEquivalence(1),
          std::make_shared<HashBlocker>(
              KeyFunction(KeyFunction::Kind::kLastWord, 0))});
  CandidateSet c2 = q2->Run(a, b);
  EXPECT_TRUE(c2.Contains(0, 0));   // (a1, b1) survives via last name.
  EXPECT_FALSE(c2.Contains(2, 1));  // (a3, b2): Welson vs Wilson killed.
  // Paper C2 = {(a1,b1), (a1,b3), (a2,b1), (a2,b3), (a4,b4), (a5,b1)}.
  EXPECT_EQ(c2.size(), 6u);
  EXPECT_TRUE(c2.Contains(0, 2));
  EXPECT_TRUE(c2.Contains(1, 0));
  EXPECT_TRUE(c2.Contains(1, 2));
  EXPECT_TRUE(c2.Contains(3, 3));
  EXPECT_TRUE(c2.Contains(4, 0));
}

TEST(FigureOneTest, ThirdBlockerKeepsWelsonWilson) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  // Q3: a.City = b.City OR ed(lastword(a.Name), lastword(b.Name)) <= 2.
  auto q3 = std::make_shared<UnionBlocker>(
      std::vector<std::shared_ptr<const Blocker>>{
          HashBlocker::AttributeEquivalence(1),
          std::make_shared<EditDistanceBlocker>(
              KeyFunction(KeyFunction::Kind::kLastWord, 0), 2)});
  CandidateSet c3 = q3->Run(a, b);
  EXPECT_TRUE(c3.Contains(0, 0));  // (a1, b1).
  EXPECT_TRUE(c3.Contains(2, 1));  // (a3, b2): ed(welson, wilson) = 1.
  // William vs Williams: ed = 1, so (a5, b4) also survives.
  EXPECT_TRUE(c3.Contains(4, 3));
}

TEST(KeyFunctionTest, Variants) {
  Table a = FigureOneTableA();
  KeyFunction full(KeyFunction::Kind::kFullValue, 1);
  EXPECT_EQ(full.Apply(a, 0).value(), "altanta");
  KeyFunction last(KeyFunction::Kind::kLastWord, 0);
  EXPECT_EQ(last.Apply(a, 0).value(), "smith");
  KeyFunction first(KeyFunction::Kind::kFirstWord, 0);
  EXPECT_EQ(first.Apply(a, 0).value(), "dave");
  KeyFunction soundex(KeyFunction::Kind::kSoundex, 0);
  EXPECT_EQ(soundex.Apply(a, 0).value(), Soundex("dave"));
  KeyFunction prefix(KeyFunction::Kind::kPrefix, 0, 4);
  EXPECT_EQ(prefix.Apply(a, 0).value(), "dave");
  KeyFunction bucket(KeyFunction::Kind::kNumericBucket, 2, 10);
  EXPECT_EQ(bucket.Apply(a, 0).value(), "1");  // 18 / 10 -> bucket 1.
}

TEST(KeyFunctionTest, MissingValues) {
  Schema schema({{"name", AttributeType::kString}});
  Table table(schema);
  table.AddRow({""});
  table.AddRow({"  ,, "});
  KeyFunction last(KeyFunction::Kind::kLastWord, 0);
  EXPECT_FALSE(last.Apply(table, 0).has_value());
  EXPECT_FALSE(last.Apply(table, 1).has_value());
  KeyFunction full(KeyFunction::Kind::kFullValue, 0);
  EXPECT_FALSE(full.Apply(table, 1).has_value());
}

TEST(KeyFunctionTest, PlaneAndStringPathsGiveTheSameKeys) {
  // Padded values, values that differ only in case or punctuation, and
  // values that normalize to nothing. A table with the plane attached must
  // key exactly like one whose plane build was cut short by a fault (the
  // truncated plane is never attached, so it keys from strings).
  Table table(Schema({{"name", AttributeType::kString}}));
  for (const char* value :
       {"Dave Smith", "  dave   SMITH  ", "\tDave-Smith.\n", "!!!", "--",
        "  ,, ", "", "   ", "x", " Ab ", "Caf\xc3\xa9 M\xc3\xbcnchen"}) {
    table.AddRow({value});
  }
  Table span = table;
  Table span_other = table;
  TokenizedTable::BuildAndAttach(span, span_other);
  Table strings = table;
  Table strings_other = table;
  {
    ScopedFaultArm fault("text_plane/build_block", FaultKind::kError, 1);
    TokenizedTable::BuildAndAttach(strings, strings_other);
  }
  ASSERT_NE(AttachedTextPlane(span), nullptr);
  ASSERT_EQ(AttachedTextPlane(strings), nullptr);

  std::vector<KeyFunction> keys = {
      KeyFunction(KeyFunction::Kind::kFullValue, 0),
      KeyFunction(KeyFunction::Kind::kFirstWord, 0),
      KeyFunction(KeyFunction::Kind::kLastWord, 0)};
  for (size_t length = 1; length <= 12; ++length) {
    keys.emplace_back(KeyFunction::Kind::kPrefix, 0, length);
  }
  for (const KeyFunction& key : keys) {
    for (size_t row = 0; row < table.num_rows(); ++row) {
      EXPECT_EQ(key.Apply(span, row), key.Apply(strings, row))
          << key.Description(table.schema()) << " row " << row;
    }
  }
  KeyFunction full(KeyFunction::Kind::kFullValue, 0);
  EXPECT_EQ(full.Apply(span, 1).value(), "dave   smith");
  EXPECT_FALSE(full.Apply(span, 3).has_value());
}

TEST(KeyFunctionTest, Descriptions) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  EXPECT_EQ(KeyFunction(KeyFunction::Kind::kLastWord, 0).Description(schema),
            "lastword(name)");
  EXPECT_EQ(
      KeyFunction(KeyFunction::Kind::kNumericBucket, 2, 5).Description(schema),
      "bucket5(age)");
}

TEST(PredicateTest, KeyEquality) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  KeyEqualityPredicate predicate(KeyFunction(KeyFunction::Kind::kLastWord, 0));
  EXPECT_TRUE(predicate.Evaluate(a, 0, b, 0));   // smith = smith.
  EXPECT_FALSE(predicate.Evaluate(a, 2, b, 1));  // welson != wilson.
}

TEST(PredicateTest, SetSimilarityAndOverlap) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  SetSimilarityPredicate jaccard(0, TokenizerSpec::Word(),
                                 SetMeasure::kJaccard, 0.3);
  // {dave, smith} vs {david, smith}: 1/3 >= 0.3.
  EXPECT_TRUE(jaccard.Evaluate(a, 0, b, 0));
  // {joe, welson} vs {joe, wilson}: 1/3.
  EXPECT_TRUE(jaccard.Evaluate(a, 2, b, 1));
  SetSimilarityPredicate strict(0, TokenizerSpec::Word(),
                                SetMeasure::kJaccard, 0.9);
  EXPECT_FALSE(strict.Evaluate(a, 0, b, 0));

  OverlapPredicate overlap(0, TokenizerSpec::Word(), 2);
  EXPECT_FALSE(overlap.Evaluate(a, 0, b, 0));  // only "smith" shared.
  EXPECT_TRUE(overlap.Evaluate(a, 3, b, 3));   // charles williams both.
}

TEST(PredicateTest, MissingValuesNeverKeep) {
  Schema schema({{"x", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({""});
  b.AddRow({"anything"});
  SetSimilarityPredicate sim(0, TokenizerSpec::Word(), SetMeasure::kJaccard,
                             0.0);
  EXPECT_FALSE(sim.Evaluate(a, 0, b, 0));
  OverlapPredicate overlap(0, TokenizerSpec::Word(), 0);
  EXPECT_FALSE(overlap.Evaluate(a, 0, b, 0));
  NumericDiffPredicate diff(0, 100.0);
  EXPECT_FALSE(diff.Evaluate(a, 0, b, 0));
}

TEST(PredicateTest, NumericDiff) {
  Schema schema({{"price", AttributeType::kNumeric}});
  Table a(schema), b(schema);
  a.AddRow({"100"});
  b.AddRow({"115"});
  b.AddRow({"125"});
  NumericDiffPredicate within20(0, 20.0);
  EXPECT_TRUE(within20.Evaluate(a, 0, b, 0));
  EXPECT_FALSE(within20.Evaluate(a, 0, b, 1));
}

TEST(PredicateTest, EditDistance) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  EditDistancePredicate predicate(KeyFunction(KeyFunction::Kind::kLastWord, 0),
                                  2);
  EXPECT_TRUE(predicate.Evaluate(a, 2, b, 1));   // welson ~ wilson.
  EXPECT_FALSE(predicate.Evaluate(a, 0, b, 1));  // smith vs wilson.
}

TEST(PredicateTest, Descriptions) {
  Schema schema({{"title", AttributeType::kString}});
  SetSimilarityPredicate sim(0, TokenizerSpec::QGram(3), SetMeasure::kJaccard,
                             0.4);
  EXPECT_EQ(sim.Description(schema), "jaccard_3gram(title) >= 0.4");
  OverlapPredicate overlap(0, TokenizerSpec::Word(), 3);
  EXPECT_EQ(overlap.Description(schema), "overlap_word(title) >= 3");
}

TEST(SortedNeighborhoodTest, WindowPairs) {
  Schema schema({{"name", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"alpha"});
  a.AddRow({"delta"});
  b.AddRow({"beta"});
  b.AddRow({"zeta"});
  // Sorted keys: alpha(a0), beta(b0), delta(a1), zeta(b1).
  CandidateSet w2 = EnumerateSortedNeighborhood(
      a, b, KeyFunction(KeyFunction::Kind::kFullValue, 0), 2);
  EXPECT_EQ(w2.size(), 3u);  // (a0,b0), (a1,b0), (a1,b1).
  EXPECT_TRUE(w2.Contains(0, 0));
  EXPECT_TRUE(w2.Contains(1, 0));
  EXPECT_TRUE(w2.Contains(1, 1));
  CandidateSet w3 = EnumerateSortedNeighborhood(
      a, b, KeyFunction(KeyFunction::Kind::kFullValue, 0), 3);
  EXPECT_TRUE(w3.Contains(0, 0));
  EXPECT_EQ(w3.size(), 3u);  // (a0,b1) still out of window (distance 3).
}

TEST(MetricsTest, RecallAndSelectivity) {
  CandidateSet candidates;
  candidates.Add(0, 0);
  candidates.Add(1, 1);
  candidates.Add(2, 2);
  CandidateSet gold;
  gold.Add(0, 0);
  gold.Add(5, 5);
  BlockerMetrics metrics = EvaluateBlocking(candidates, gold, 10, 10);
  EXPECT_EQ(metrics.candidate_count, 3u);
  EXPECT_DOUBLE_EQ(metrics.recall, 0.5);
  EXPECT_DOUBLE_EQ(metrics.selectivity, 0.03);
  EXPECT_EQ(metrics.killed_matches, 1u);
}

TEST(MetricsTest, EmptyGoldHasFullRecall) {
  CandidateSet candidates;
  CandidateSet gold;
  BlockerMetrics metrics = EvaluateBlocking(candidates, gold, 5, 5);
  EXPECT_DOUBLE_EQ(metrics.recall, 1.0);
  EXPECT_EQ(metrics.killed_matches, 0u);
}

// ---------------------------------------------------------------------------
// Property suite: every indexed executor must agree exactly with the naive
// all-pairs evaluation of its predicate, across randomized dirty tables.
// ---------------------------------------------------------------------------

// Random table of person-ish rows with typos and missing values.
Table RandomTable(Rng& rng, size_t rows) {
  static const char* const kFirst[] = {"dave", "david", "daniel", "joe",
                                       "charles", "charlie", "anna", "maria"};
  static const char* const kLast[] = {"smith", "smyth", "welson", "wilson",
                                      "william", "williams", "lee", "chen"};
  static const char* const kCity[] = {"atlanta", "altanta", "new york", "ny",
                                      "la", "chicago", ""};
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kNumeric}});
  Table table(schema);
  for (size_t i = 0; i < rows; ++i) {
    std::string name = std::string(kFirst[rng.NextBelow(8)]) + " " +
                       kLast[rng.NextBelow(8)];
    if (rng.NextBool(0.1)) name = "";  // missing name.
    std::string city = kCity[rng.NextBelow(7)];
    std::string age =
        rng.NextBool(0.15) ? "" : std::to_string(rng.NextBelow(80));
    table.AddRow({name, city, age});
  }
  return table;
}

void ExpectSameSets(const CandidateSet& expected, const CandidateSet& actual,
                    const std::string& label) {
  EXPECT_EQ(expected.size(), actual.size()) << label;
  for (PairId pair : expected) {
    EXPECT_TRUE(actual.Contains(pair))
        << label << " missing (" << PairRowA(pair) << "," << PairRowB(pair)
        << ")";
  }
  for (PairId pair : actual) {
    EXPECT_TRUE(expected.Contains(pair))
        << label << " extra (" << PairRowA(pair) << "," << PairRowB(pair)
        << ")";
  }
}

class ExecutorEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorEquivalenceTest, KeyEqualityMatchesNaive) {
  Rng rng(GetParam());
  Table a = RandomTable(rng, 40);
  Table b = RandomTable(rng, 50);
  for (KeyFunction::Kind kind :
       {KeyFunction::Kind::kFullValue, KeyFunction::Kind::kLastWord,
        KeyFunction::Kind::kSoundex}) {
    KeyFunction key(kind, 0);
    auto predicate = std::make_shared<KeyEqualityPredicate>(key);
    CandidateSet naive = NaiveBlocker(predicate).Run(a, b);
    CandidateSet indexed = EnumerateKeyEquality(a, b, key);
    ExpectSameSets(naive, indexed, "key equality");
  }
}

// Keys built to collide, vanish or carry odd bytes: duplicates in both
// tables, missing and whitespace-only cells, punctuation that normalizes
// away, NUL and high bytes, numeric strings — under every key function,
// from strings and over the text plane.
TEST_P(ExecutorEquivalenceTest, KeyEqualityEdgeKeysMatchNaive) {
  using namespace std::string_literals;
  static const std::vector<std::string> kValues = {
      "Apple Pie"s, "apple pie"s, "APPLE  PIE!"s, " apple pie "s, ""s,
      "   "s,       "\t\r\n"s,    "!!!"s,          "ab\0cd"s,       "ab\0ce"s,
      "\0"s,        "x\0"s,       "caf\xc3\xa9"s,   "cafe"s,         "\xff"s,
      "12"s,        "12.5"s,      "-3"s,           "19.99"s,        "20"s,
      "Smith"s,     "Smyth"s,     "smith john"s,   "john smith"s,   "x"s};
  Rng rng(GetParam() + 6000);
  auto random_table = [&](size_t rows) {
    Table table(Schema({{"value", AttributeType::kString}}));
    for (size_t i = 0; i < rows; ++i) {
      table.AddRow({kValues[rng.NextBelow(kValues.size())]});
    }
    return table;
  };
  Table a = random_table(40);
  Table b = random_table(50);
  using Kind = KeyFunction::Kind;
  const std::vector<KeyFunction> keys = {
      KeyFunction(Kind::kFullValue, 0),     KeyFunction(Kind::kRawValue, 0),
      KeyFunction(Kind::kLastWord, 0),      KeyFunction(Kind::kFirstWord, 0),
      KeyFunction(Kind::kSoundex, 0),       KeyFunction(Kind::kPrefix, 0, 3),
      KeyFunction(Kind::kNumericBucket, 0, 10)};
  for (const char* path : {"strings", "plane"}) {
    if (std::string(path) == "plane") TokenizedTable::BuildAndAttach(a, b);
    for (const KeyFunction& key : keys) {
      const std::string label = key.Description(a.schema()) + " / " + path;
      CandidateSet naive =
          NaiveBlocker(std::make_shared<KeyEqualityPredicate>(key)).Run(a, b);
      ExpectSameSets(naive, EnumerateKeyEquality(a, b, key), label);
      for (size_t d : {0u, 1u, 2u}) {
        EditDistancePredicate predicate(key, d);
        CandidateSet naive_ed =
            NaiveBlocker(std::make_shared<EditDistancePredicate>(predicate))
                .Run(a, b);
        ExpectSameSets(naive_ed, EnumerateEditDistanceKeys(a, b, predicate),
                       label + " ed <= " + std::to_string(d));
      }
    }
  }
}

TEST_P(ExecutorEquivalenceTest, SetSimilarityMatchesNaive) {
  Rng rng(GetParam() + 1000);
  Table a = RandomTable(rng, 40);
  Table b = RandomTable(rng, 50);
  for (SetMeasure measure :
       {SetMeasure::kJaccard, SetMeasure::kCosine, SetMeasure::kDice,
        SetMeasure::kOverlapCoefficient}) {
    for (double threshold : {0.3, 0.5, 0.8}) {
      SetSimilarityPredicate predicate(0, TokenizerSpec::Word(), measure,
                                       threshold);
      auto shared = std::make_shared<SetSimilarityPredicate>(predicate);
      CandidateSet naive = NaiveBlocker(shared).Run(a, b);
      CandidateSet indexed = EnumerateSetSimilarity(a, b, predicate);
      ExpectSameSets(naive, indexed,
                     std::string(SetMeasureName(measure)) + " @ " +
                         std::to_string(threshold));
    }
  }
}

TEST_P(ExecutorEquivalenceTest, QGramSimilarityMatchesNaive) {
  Rng rng(GetParam() + 2000);
  Table a = RandomTable(rng, 30);
  Table b = RandomTable(rng, 30);
  SetSimilarityPredicate predicate(0, TokenizerSpec::QGram(3),
                                   SetMeasure::kJaccard, 0.4);
  auto shared = std::make_shared<SetSimilarityPredicate>(predicate);
  CandidateSet naive = NaiveBlocker(shared).Run(a, b);
  CandidateSet indexed = EnumerateSetSimilarity(a, b, predicate);
  ExpectSameSets(naive, indexed, "3gram jaccard");
}

TEST_P(ExecutorEquivalenceTest, OverlapMatchesNaive) {
  Rng rng(GetParam() + 3000);
  Table a = RandomTable(rng, 40);
  Table b = RandomTable(rng, 50);
  for (size_t min_overlap : {1u, 2u, 3u}) {
    OverlapPredicate predicate(0, TokenizerSpec::Word(), min_overlap);
    auto shared = std::make_shared<OverlapPredicate>(predicate);
    CandidateSet naive = NaiveBlocker(shared).Run(a, b);
    CandidateSet indexed = EnumerateOverlap(a, b, predicate);
    ExpectSameSets(naive, indexed,
                   "overlap >= " + std::to_string(min_overlap));
  }
}

TEST_P(ExecutorEquivalenceTest, EditDistanceMatchesNaive) {
  Rng rng(GetParam() + 4000);
  Table a = RandomTable(rng, 40);
  Table b = RandomTable(rng, 50);
  for (size_t d : {0u, 1u, 2u, 3u}) {
    EditDistancePredicate predicate(
        KeyFunction(KeyFunction::Kind::kLastWord, 0), d);
    auto shared = std::make_shared<EditDistancePredicate>(predicate);
    CandidateSet naive = NaiveBlocker(shared).Run(a, b);
    CandidateSet indexed = EnumerateEditDistanceKeys(a, b, predicate);
    ExpectSameSets(naive, indexed, "edit distance <= " + std::to_string(d));
  }
}

TEST_P(ExecutorEquivalenceTest, RuleBlockerMatchesNaiveConjunction) {
  Rng rng(GetParam() + 5000);
  Table a = RandomTable(rng, 40);
  Table b = RandomTable(rng, 50);
  // Rule 1: jaccard_word(name) >= 0.3 AND absdiff(age) <= 5.
  // Rule 2: a.city = b.city.
  ConjunctiveRule rule1({
      std::make_shared<SetSimilarityPredicate>(0, TokenizerSpec::Word(),
                                               SetMeasure::kJaccard, 0.3),
      std::make_shared<NumericDiffPredicate>(2, 5.0),
  });
  ConjunctiveRule rule2({std::make_shared<KeyEqualityPredicate>(
      KeyFunction(KeyFunction::Kind::kFullValue, 1))});
  RuleBlocker blocker({rule1, rule2});
  CandidateSet indexed = blocker.Run(a, b);

  CandidateSet naive;
  for (size_t ra = 0; ra < a.num_rows(); ++ra) {
    for (size_t rb = 0; rb < b.num_rows(); ++rb) {
      if (rule1.Evaluate(a, ra, b, rb) || rule2.Evaluate(a, ra, b, rb)) {
        naive.Add(static_cast<RowId>(ra), static_cast<RowId>(rb));
      }
    }
  }
  ExpectSameSets(naive, indexed, "rule blocker");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RuleBlockerTest, NaiveFallbackForNonIndexableRule) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  // A rule containing only a numeric-diff predicate has no indexable anchor.
  ConjunctiveRule rule({std::make_shared<NumericDiffPredicate>(2, 0.0)});
  RuleBlocker blocker({rule});
  CandidateSet result = blocker.Run(a, b);
  EXPECT_TRUE(result.Contains(0, 0));   // both age 18.
  EXPECT_TRUE(result.Contains(1, 0));   // 18 = 18.
  EXPECT_TRUE(result.Contains(2, 1));   // 25 = 25.
  EXPECT_TRUE(result.Contains(3, 3));   // 45 = 45.
  EXPECT_FALSE(result.Contains(4, 0));  // a5 age 28 vs 18.
}

TEST(RuleBlockerTest, Description) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  ConjunctiveRule rule({
      std::make_shared<SetSimilarityPredicate>(0, TokenizerSpec::Word(),
                                               SetMeasure::kCosine, 0.5),
      std::make_shared<NumericDiffPredicate>(2, 5.0),
  });
  RuleBlocker blocker({rule});
  EXPECT_EQ(blocker.Description(schema),
            "(cosine_word(name) >= 0.5 AND absdiff(age) <= 5)");
}

TEST(UnionBlockerTest, DescriptionJoinsMembers) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  UnionBlocker blocker({HashBlocker::AttributeEquivalence(1),
                        std::make_shared<HashBlocker>(
                            KeyFunction(KeyFunction::Kind::kLastWord, 0))});
  EXPECT_EQ(blocker.Description(schema),
            "a.city = b.city OR a.lastword(name) = b.lastword(name)");
}

TEST(PhoneticBlockerTest, SoundexGrouping) {
  Schema schema({{"name", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"Smith"});
  a.AddRow({"Jones"});
  b.AddRow({"Smyth"});
  b.AddRow({"Brown"});
  PhoneticBlocker blocker(0);
  CandidateSet result = blocker.Run(a, b);
  EXPECT_TRUE(result.Contains(0, 0));
  EXPECT_FALSE(result.Contains(1, 1));
  EXPECT_EQ(result.size(), 1u);
}

}  // namespace
}  // namespace mc
