// The acceptance test for the tokenize-once text plane: every output of the
// debugging pipeline — promising-attribute e-scores, per-config top-k lists
// (pairs AND score bits), the candidate set E, pair feature vectors, blocker
// candidate sets, and repair suggestions — must be bit-identical between
// span reads off the attached plane and the per-call string path, at 1 and
// N threads. Sessions reach the string path the way production does: a
// plane build cut short (here by the text_plane/build_block fault point) is
// truncated and never attached, so every stage falls back to strings.

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/standard_blockers.h"
#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "explain/repair.h"
#include "table/tokenized_table.h"
#include "util/fault_injection.h"
#include "verifier/user_oracle.h"

namespace mc {
namespace {

datagen::GeneratedDataset TestDataset() {
  return datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.3));
}

Result<DebugSession> MakeSession(const datagen::GeneratedDataset& dataset,
                                 const CandidateSet& blocker_output,
                                 size_t threads) {
  MatchCatcherOptions options;
  options.joint.k = 50;
  options.joint.num_threads = threads;
  return DebugSession::Create(dataset.table_a, dataset.table_b,
                              blocker_output, options);
}

// A session whose plane build loses its first block to an injected error:
// the truncated plane is not attached, so the session runs on strings.
Result<DebugSession> MakeStringPathSession(
    const datagen::GeneratedDataset& dataset,
    const CandidateSet& blocker_output, size_t threads) {
  ScopedFaultArm fault("text_plane/build_block", FaultKind::kError, 1);
  Result<DebugSession> session = MakeSession(dataset, blocker_output, threads);
  EXPECT_GT(fault.HitCount(), 0u);
  return session;
}

// Exact double equality, expressed over the bit patterns so the failure
// message shows which bits moved (== on doubles would also be exact, but
// hides denormal/negative-zero differences).
::testing::AssertionResult SameBits(double x, double y) {
  uint64_t bx, by;
  std::memcpy(&bx, &x, sizeof(bx));
  std::memcpy(&by, &y, sizeof(by));
  if (bx == by) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << x << " vs " << y << " (bits " << bx << " vs " << by << ")";
}

// Every session output of `got` matches `want` bit for bit.
void ExpectSameSession(const DebugSession& got, const DebugSession& want) {
  // Promising attributes: same columns, bit-identical e-scores and
  // average lengths (profiling ran on spans vs strings).
  const PromisingAttributes& pa = got.attributes();
  const PromisingAttributes& pl = want.attributes();
  ASSERT_EQ(pa.columns, pl.columns);
  ASSERT_EQ(pa.e_scores.size(), pl.e_scores.size());
  for (size_t i = 0; i < pa.e_scores.size(); ++i) {
    EXPECT_TRUE(SameBits(pa.e_scores[i], pl.e_scores[i])) << "e_score " << i;
    EXPECT_TRUE(SameBits(pa.avg_len_a[i], pl.avg_len_a[i]));
    EXPECT_TRUE(SameBits(pa.avg_len_b[i], pl.avg_len_b[i]));
  }

  // Inferred schema types must agree (type inference profiles via the
  // plane when one is attached).
  ASSERT_TRUE(got.table_a().schema() == want.table_a().schema());

  // Per-config top-k lists: identical pairs and score bits, in order.
  auto lists_t = got.TopKLists();
  auto lists_l = want.TopKLists();
  ASSERT_EQ(lists_t.size(), lists_l.size());
  for (size_t c = 0; c < lists_t.size(); ++c) {
    ASSERT_EQ(lists_t[c].size(), lists_l[c].size()) << "config " << c;
    for (size_t i = 0; i < lists_t[c].size(); ++i) {
      EXPECT_EQ(lists_t[c][i].pair, lists_l[c][i].pair)
          << "config " << c << " entry " << i;
      EXPECT_TRUE(SameBits(lists_t[c][i].score, lists_l[c][i].score))
          << "config " << c << " entry " << i;
    }
  }

  // E and per-pair feature vectors.
  std::vector<PairId> pairs_t = got.CandidatePairs();
  std::vector<PairId> pairs_l = want.CandidatePairs();
  ASSERT_EQ(pairs_t, pairs_l);
  for (PairId pair : pairs_t) {
    FeatureVector ft = got.extractor().Extract(pair);
    FeatureVector fl = want.extractor().Extract(pair);
    ASSERT_EQ(ft.size(), fl.size());
    for (size_t i = 0; i < ft.size(); ++i) {
      EXPECT_TRUE(SameBits(ft[i], fl[i]))
          << "pair " << pair << " feature " << i << " ("
          << got.extractor().feature_names()[i] << ")";
    }
  }

  // Repair suggestions render identically (BestComplementaryAttribute
  // averages span Jaccards vs string Jaccards).
  std::vector<PairId> confirmed(pairs_t.begin(),
                                pairs_t.begin() +
                                    std::min<size_t>(pairs_t.size(), 20));
  std::string repairs_t = RenderRepairs(
      got.table_a().schema(),
      SuggestRepairs(got.table_a(), got.table_b(), confirmed));
  std::string repairs_l = RenderRepairs(
      want.table_a().schema(),
      SuggestRepairs(want.table_a(), want.table_b(), confirmed));
  EXPECT_EQ(repairs_t, repairs_l);
}

TEST(TextPlaneEquivalenceTest, FullSessionBitIdentical) {
  datagen::GeneratedDataset dataset = TestDataset();
  size_t city = dataset.table_a.schema().RequireIndexOf("city");
  auto blocker = HashBlocker::AttributeEquivalence(city);
  CandidateSet blocked = blocker->Run(dataset.table_a, dataset.table_b);

  // The reference: the string path at one thread. Both paths at every
  // thread count must reproduce it, so a thread-count defect shows even
  // when it hits both paths alike.
  Result<DebugSession> reference = MakeStringPathSession(dataset, blocked, 1);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference->truncated());
  EXPECT_EQ(SharedTextPlane(reference->table_a(), reference->table_b()),
            nullptr);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Result<DebugSession> tokenized = MakeSession(dataset, blocked, threads);
    ASSERT_TRUE(tokenized.ok());
    EXPECT_GT(tokenized->text_plane_seconds(), 0.0);
    EXPECT_NE(SharedTextPlane(tokenized->table_a(), tokenized->table_b()),
              nullptr);
    {
      SCOPED_TRACE("plane");
      ExpectSameSession(*tokenized, *reference);
    }

    if (threads == 1) continue;  // the reference itself
    Result<DebugSession> strings =
        MakeStringPathSession(dataset, blocked, threads);
    ASSERT_TRUE(strings.ok());
    EXPECT_FALSE(strings->truncated());
    EXPECT_EQ(SharedTextPlane(strings->table_a(), strings->table_b()),
              nullptr);
    {
      SCOPED_TRACE("strings");
      ExpectSameSession(*strings, *reference);
    }
  }
}

TEST(TextPlaneEquivalenceTest, BlockerCandidateSetsIdentical) {
  datagen::GeneratedDataset dataset = TestDataset();
  Table plain_a = dataset.table_a;
  Table plain_b = dataset.table_b;
  Table span_a = dataset.table_a;
  Table span_b = dataset.table_b;
  TokenizedTable::BuildAndAttach(span_a, span_b);
  ASSERT_NE(SharedTextPlane(span_a, span_b), nullptr);

  size_t name = dataset.table_a.schema().RequireIndexOf("name");
  size_t city = dataset.table_a.schema().RequireIndexOf("city");
  std::vector<std::shared_ptr<const Blocker>> blockers = {
      HashBlocker::AttributeEquivalence(city),
      std::make_shared<HashBlocker>(
          KeyFunction(KeyFunction::Kind::kLastWord, name)),
      std::make_shared<HashBlocker>(
          KeyFunction(KeyFunction::Kind::kPrefix, name, 4)),
      std::make_shared<SimilarityBlocker>(name, TokenizerSpec::Word(),
                                          SetMeasure::kJaccard, 0.4),
      std::make_shared<SimilarityBlocker>(name, TokenizerSpec::QGram(3),
                                          SetMeasure::kCosine, 0.5),
      std::make_shared<OverlapBlocker>(name, TokenizerSpec::Word(), 2),
      std::make_shared<SortedNeighborhoodBlocker>(
          KeyFunction(KeyFunction::Kind::kFullValue, name), 4),
  };
  for (const auto& blocker : blockers) {
    CandidateSet plain = blocker->Run(plain_a, plain_b);
    CandidateSet spans = blocker->Run(span_a, span_b);
    EXPECT_EQ(plain.SortedPairs(), spans.SortedPairs())
        << blocker->Description(dataset.table_a.schema());
  }

  // KeepsPair (the predicate path) agrees on a dense probe of pairs.
  for (const auto& blocker : blockers) {
    for (size_t r = 0; r < std::min<size_t>(plain_a.num_rows(), 25); ++r) {
      for (size_t s = 0; s < std::min<size_t>(plain_b.num_rows(), 25); ++s) {
        std::optional<bool> plain = blocker->KeepsPair(plain_a, r, plain_b, s);
        std::optional<bool> spans = blocker->KeepsPair(span_a, r, span_b, s);
        EXPECT_EQ(plain, spans)
            << blocker->Description(dataset.table_a.schema()) << " pair ("
            << r << "," << s << ")";
      }
    }
  }
}

// A q-gram column the plane cannot build (the text_plane/qgram_build
// fault; a refused budget charge takes the same exit) sends the q-gram
// blockers and predicates to their string path, with identical output.
TEST(TextPlaneEquivalenceTest, QGramBuildFaultKeepsBlockerOutput) {
  datagen::GeneratedDataset dataset = TestDataset();
  Table plain_a = dataset.table_a;
  Table plain_b = dataset.table_b;
  size_t name = dataset.table_a.schema().RequireIndexOf("name");
  std::vector<std::shared_ptr<const Blocker>> blockers = {
      std::make_shared<SimilarityBlocker>(name, TokenizerSpec::QGram(3),
                                          SetMeasure::kCosine, 0.5),
      std::make_shared<SimilarityBlocker>(name, TokenizerSpec::QGram(2),
                                          SetMeasure::kJaccard, 0.4),
      std::make_shared<OverlapBlocker>(name, TokenizerSpec::QGram(3), 6),
  };
  for (const auto& blocker : blockers) {
    SCOPED_TRACE(blocker->Description(dataset.table_a.schema()));
    // A fresh plane per blocker, so its column is built under the fault.
    Table span_a = dataset.table_a;
    Table span_b = dataset.table_b;
    TokenizedTable::BuildAndAttach(span_a, span_b);
    ASSERT_NE(SharedTextPlane(span_a, span_b), nullptr);
    ScopedFaultArm fault("text_plane/qgram_build", FaultKind::kError);
    EXPECT_EQ(blocker->Run(plain_a, plain_b).SortedPairs(),
              blocker->Run(span_a, span_b).SortedPairs());
    EXPECT_GT(fault.HitCount(), 0u);
    for (size_t r = 0; r < std::min<size_t>(plain_a.num_rows(), 15); ++r) {
      for (size_t s = 0; s < std::min<size_t>(plain_b.num_rows(), 15); ++s) {
        EXPECT_EQ(blocker->KeepsPair(plain_a, r, plain_b, s),
                  blocker->KeepsPair(span_a, r, span_b, s))
            << "pair (" << r << "," << s << ")";
      }
    }
  }
}

// The verifier never reads the plane's q-gram columns: with their build
// failing throughout, a session over a plane verifies exactly as before.
TEST(TextPlaneEquivalenceTest, QGramBuildFaultKeepsVerification) {
  datagen::GeneratedDataset dataset = TestDataset();
  size_t city = dataset.table_a.schema().RequireIndexOf("city");
  CandidateSet blocked = HashBlocker::AttributeEquivalence(city)->Run(
      dataset.table_a, dataset.table_b);
  auto verify = [&](bool armed) {
    std::optional<ScopedFaultArm> fault;
    if (armed) fault.emplace("text_plane/qgram_build", FaultKind::kError);
    Result<DebugSession> session = MakeSession(dataset, blocked, 1);
    EXPECT_TRUE(session.ok());
    EXPECT_NE(SharedTextPlane(session->table_a(), session->table_b()),
              nullptr);
    GoldOracle oracle(&dataset.gold);
    return session->RunVerification(oracle);
  };
  const VerifierResult want = verify(false);
  const VerifierResult got = verify(true);
  EXPECT_EQ(got.confirmed_matches.SortedPairs(),
            want.confirmed_matches.SortedPairs());
  EXPECT_EQ(got.pairs_shown, want.pairs_shown);
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  EXPECT_GT(want.confirmed_matches.size(), 0u);
  for (size_t i = 0; i < got.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].phase, want.iterations[i].phase) << i;
    EXPECT_EQ(got.iterations[i].shown, want.iterations[i].shown) << i;
    EXPECT_EQ(got.iterations[i].new_matches, want.iterations[i].new_matches)
        << i;
  }
}

}  // namespace
}  // namespace mc
