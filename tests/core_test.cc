#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "blocking/standard_blockers.h"
#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "table/profile.h"
#include "table/tokenized_table.h"

namespace mc {
namespace {

// The paper's Figure 1 example, end to end.
Table FigureOneTableA() {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"Dave Smith", "Altanta", "18"});
  table.AddRow({"Daniel Smith", "LA", "18"});
  table.AddRow({"Joe Welson", "New York", "25"});
  table.AddRow({"Charles Williams", "Chicago", "45"});
  table.AddRow({"Charlie William", "Atlanta", "28"});
  return table;
}

Table FigureOneTableB() {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"David Smith", "Atlanta", "18"});
  table.AddRow({"Joe Wilson", "NY", "25"});
  table.AddRow({"Daniel W. Smith", "LA", "30"});
  table.AddRow({"Charles Williams", "Chicago", "45"});
  return table;
}

MatchCatcherOptions SmallOptions() {
  MatchCatcherOptions options;
  options.joint.k = 10;
  options.joint.num_threads = 1;
  options.verifier.pairs_per_iteration = 3;  // n = 3 as in Example 1.1.
  options.verifier.forest.num_trees = 8;
  return options;
}

TEST(DebugSessionTest, FigureOneFindsKilledMatches) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  auto blocker = HashBlocker::AttributeEquivalence(1);  // Q1: city equality.
  CandidateSet c1 = blocker->Run(a, b);

  Result<DebugSession> session =
      DebugSession::Create(a, b, c1, SmallOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // The killed-off true matches (a1,b1) and (a3,b2) must be in E.
  std::vector<PairId> candidates = session->CandidatePairs();
  CandidateSet e;
  for (PairId pair : candidates) e.Add(pair);
  EXPECT_TRUE(e.Contains(0, 0)) << "(a1, b1) missing from E";
  EXPECT_TRUE(e.Contains(2, 1)) << "(a3, b2) missing from E";
  // Pairs surviving the blocker must not appear.
  EXPECT_FALSE(e.Contains(1, 2));
  EXPECT_FALSE(e.Contains(3, 3));
  EXPECT_FALSE(e.Contains(4, 0));

  // The verifier with a gold oracle confirms both killed-off matches.
  CandidateSet gold;
  gold.Add(0, 0);
  gold.Add(2, 1);
  GoldOracle oracle(&gold);
  VerifierResult result = session->RunVerification(oracle);
  EXPECT_TRUE(result.confirmed_matches.Contains(0, 0));
  EXPECT_TRUE(result.confirmed_matches.Contains(2, 1));
}

// Shared tables that already carry a plane and the inferred schema need no
// edit for an infer_types session, so Create shares them instead of
// copying both.
TEST(DebugSessionTest, SharedTablesWithInferredSchemaAreNotCopied) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  TokenizedTable::BuildAndAttach(a, b);
  a.SetSchema(InferAttributeTypes(a));
  b.SetSchema(a.schema());
  ASSERT_FALSE(a.schema() == FigureOneTableA().schema());
  auto shared_a = std::make_shared<const Table>(std::move(a));
  auto shared_b = std::make_shared<const Table>(std::move(b));
  ASSERT_NE(SharedTextPlane(*shared_a, *shared_b), nullptr);
  CandidateSet c1 =
      HashBlocker::AttributeEquivalence(1)->Run(*shared_a, *shared_b);

  MatchCatcherOptions options = SmallOptions();
  ASSERT_TRUE(options.infer_types);
  Result<DebugSession> shared =
      DebugSession::Create(shared_a, shared_b, c1, options);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(&shared->table_a(), shared_a.get());
  EXPECT_EQ(&shared->table_b(), shared_b.get());

  // Same session as over private copies of the registered tables.
  Result<DebugSession> copied = DebugSession::Create(
      FigureOneTableA(), FigureOneTableB(), c1, options);
  ASSERT_TRUE(copied.ok());
  EXPECT_TRUE(copied->table_a().schema() == shared->table_a().schema());
  EXPECT_EQ(copied->CandidatePairs(), shared->CandidatePairs());

  // A shared pair still on the registered schema gets its own Table
  // objects with the rewritten schema, over the same cells (the service
  // hands infer_types sessions its stored tables this way).
  auto plain_a = std::make_shared<const Table>(FigureOneTableA());
  auto plain_b = std::make_shared<const Table>(FigureOneTableB());
  Result<DebugSession> rewritten =
      DebugSession::Create(plain_a, plain_b, c1, options);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_NE(&rewritten->table_a(), plain_a.get());
  EXPECT_TRUE(rewritten->table_a().schema() == shared_a->schema());
  EXPECT_FALSE(plain_a->schema() == shared_a->schema());
  for (size_t c = 0; c < plain_a->num_columns(); ++c) {
    EXPECT_EQ(rewritten->table_a().Column(c).data(),
              plain_a->Column(c).data());
    EXPECT_EQ(rewritten->table_b().Column(c).data(),
              plain_b->Column(c).data());
  }
}

TEST(DebugSessionTest, FirstIterationSurfacesLikelyMatchesFirst) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  auto blocker = HashBlocker::AttributeEquivalence(1);
  CandidateSet c1 = blocker->Run(a, b);
  Result<DebugSession> session =
      DebugSession::Create(a, b, c1, SmallOptions());
  ASSERT_TRUE(session.ok());
  MatchVerifier verifier = session->MakeVerifier();
  std::vector<PairId> first = verifier.NextBatch();
  ASSERT_EQ(first.size(), 3u);
  // Paper iteration 1 shows (a1,b1), (a3,b2), (a2,b1) — the two true
  // matches must be among the first three shown.
  CandidateSet shown;
  for (PairId pair : first) shown.Add(pair);
  EXPECT_TRUE(shown.Contains(0, 0));
  EXPECT_TRUE(shown.Contains(2, 1));
}

TEST(DebugSessionTest, ConfigTreeAndMetadata) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  CandidateSet c;
  Result<DebugSession> session = DebugSession::Create(a, b, c,
                                                      SmallOptions());
  ASSERT_TRUE(session.ok());
  // Age is numeric -> dropped; name and city remain -> 2*(3)/2 = 3 configs.
  EXPECT_EQ(session->attributes().size(), 2u);
  EXPECT_EQ(session->config_tree().size(), 3u);
  EXPECT_EQ(session->joint_result().per_config.size(), 3u);
  EXPECT_EQ(session->TopKLists().size(), 3u);
  EXPECT_GE(session->topk_seconds(), 0.0);
  EXPECT_GE(session->config_seconds(), 0.0);
}

TEST(DebugSessionTest, ExplainPairFlagsProblems) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  CandidateSet c;
  Result<DebugSession> session = DebugSession::Create(a, b, c,
                                                      SmallOptions());
  ASSERT_TRUE(session.ok());
  // (a1, b1): "Altanta" vs "Atlanta" is a misspelling.
  std::string explanation = session->ExplainPair(MakePairId(0, 0));
  EXPECT_NE(explanation.find("Altanta"), std::string::npos);
  EXPECT_NE(explanation.find("misspelling"), std::string::npos);
  // (a3, b2): "New York" vs "NY" is a variation.
  std::string variation = session->ExplainPair(MakePairId(2, 1));
  EXPECT_NE(variation.find("city"), std::string::npos);
}

TEST(DebugSessionTest, PreCancelledContextFailsCreateWithDeadlineExceeded) {
  Table a = FigureOneTableA();
  Table b = FigureOneTableB();
  auto blocker = HashBlocker::AttributeEquivalence(1);
  CandidateSet c1 = blocker->Run(a, b);

  MatchCatcherOptions options = SmallOptions();
  RunContext context = RunContext::Cancellable();
  context.Cancel();
  options.run_context = context;

  // Cancellation during config generation leaves nothing useful, so Create
  // fails with the typed code instead of returning a degenerate session.
  Result<DebugSession> session = DebugSession::Create(a, b, c1, options);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DebugSessionTest, ErrorsPropagate) {
  // Tables with only a numeric attribute -> no promising attributes.
  Schema schema({{"price", AttributeType::kString}});
  Table a(schema), b(schema);
  for (int i = 0; i < 20; ++i) {
    a.AddRow({std::to_string(i)});
    b.AddRow({std::to_string(i * 2)});
  }
  CandidateSet c;
  Result<DebugSession> session = DebugSession::Create(a, b, c);
  EXPECT_FALSE(session.ok());
}

TEST(DebugSessionTest, EndToEndOnGeneratedRestaurants) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.5));
  // A city-equality blocker (raw values) kills variant/misspelled cities.
  auto blocker = HashBlocker::AttributeEquivalence(
      dataset.table_a.schema().RequireIndexOf("city"));
  CandidateSet c = blocker->Run(dataset.table_a, dataset.table_b);

  MatchCatcherOptions options;
  options.joint.k = 200;
  options.joint.num_threads = 2;
  options.verifier.forest.num_trees = 8;
  Result<DebugSession> session =
      DebugSession::Create(dataset.table_a, dataset.table_b, c, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  size_t killed = dataset.gold.size() -
                  c.IntersectionSize(dataset.gold);
  ASSERT_GT(killed, 0u) << "blocker should kill some matches";

  // E must contain a decent share of the killed-off matches.
  CandidateSet e;
  for (PairId pair : session->CandidatePairs()) e.Add(pair);
  size_t found_in_e = 0;
  for (PairId pair : dataset.gold) {
    if (!c.Contains(pair) && e.Contains(pair)) ++found_in_e;
  }
  EXPECT_GT(found_in_e, killed / 2)
      << "E recovered " << found_in_e << " of " << killed;

  // And the verifier should confirm a good share of those.
  GoldOracle oracle(&dataset.gold);
  VerifierResult result = session->RunVerification(oracle);
  EXPECT_GT(result.confirmed_matches.size(), found_in_e / 2);
  for (PairId pair : result.confirmed_matches) {
    EXPECT_TRUE(dataset.gold.Contains(pair));
    EXPECT_FALSE(c.Contains(pair));
  }
}

}  // namespace
}  // namespace mc
