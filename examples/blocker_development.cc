// The paper's Example 1.1 workflow at realistic scale: start with a naive
// blocker, use MatchCatcher to find what it kills, revise, repeat.
//
// Dataset: generated Fodors-Zagats-style restaurant tables (533 x 331, 112
// gold matches) with the misspellings, abbreviations, and "city sprinkled in
// name" problems that motivate the paper.
//
//   Q1:  a.city = b.city                 (attribute equivalence)
//   Q2:  Q1  OR  lastword(name) equal    (add a hash rule)
//   Q3:  Q1  OR  ed(lastword(name)) <= 2 (relax to edit distance)

#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "blocking/metrics.h"
#include "blocking/standard_blockers.h"
#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "explain/repair.h"

namespace {

void DebugRound(const mc::datagen::GeneratedDataset& dataset,
                const std::shared_ptr<const mc::Blocker>& blocker,
                const char* label) {
  const mc::Table& a = dataset.table_a;
  const mc::Table& b = dataset.table_b;
  mc::CandidateSet c = blocker->Run(a, b);
  mc::BlockerMetrics metrics =
      mc::EvaluateBlocking(c, dataset.gold, a.num_rows(), b.num_rows());

  std::cout << "\n=== " << label << ": " << blocker->Description(a.schema())
            << "\n    |C| = " << metrics.candidate_count
            << ", recall = " << std::fixed << std::setprecision(1)
            << metrics.recall * 100 << "%, killed matches = "
            << metrics.killed_matches << "\n";

  mc::MatchCatcherOptions options;
  options.joint.k = 200;
  mc::Result<mc::DebugSession> session =
      mc::DebugSession::Create(a, b, c, options);
  if (!session.ok()) {
    std::cerr << "debug failed: " << session.status().ToString() << "\n";
    return;
  }

  // Simulate the user working through the first two iterations.
  mc::GoldOracle oracle(&dataset.gold);
  mc::MatchVerifier verifier = session->MakeVerifier();
  mc::VerifierResult result = verifier.RunIterations(oracle, 2);
  std::cout << "    MatchCatcher: " << result.confirmed_matches.size()
            << " true killed-off matches surfaced in 2 iterations ("
            << result.pairs_shown << " pairs examined)\n";

  const std::vector<mc::PairId> confirmed =
      result.confirmed_matches.SortedPairs();
  for (size_t i = 0; i < confirmed.size() && i < 2; ++i) {
    std::cout << "\n" << session->ExplainPair(confirmed[i]);
  }

  // What the user would do next, suggested automatically.
  if (!confirmed.empty()) {
    std::cout << "\n"
              << mc::RenderRepairs(
                     a.schema(),
                     mc::SuggestRepairs(a, b, confirmed));
  }
}

}  // namespace

int main() {
  mc::datagen::GeneratedDataset dataset = mc::datagen::GenerateFodorsZagats();
  const mc::Schema& schema = dataset.table_a.schema();
  size_t name_col = schema.RequireIndexOf("name");
  size_t city_col = schema.RequireIndexOf("city");
  std::cout << "restaurants: |A| = " << dataset.table_a.num_rows()
            << ", |B| = " << dataset.table_b.num_rows()
            << ", gold matches = " << dataset.gold.size() << "\n";

  auto q1 = mc::HashBlocker::AttributeEquivalence(city_col);
  DebugRound(dataset, q1, "Q1");

  auto q2 = std::make_shared<mc::UnionBlocker>(
      std::vector<std::shared_ptr<const mc::Blocker>>{
          q1, std::make_shared<mc::HashBlocker>(mc::KeyFunction(
                  mc::KeyFunction::Kind::kLastWord, name_col))});
  DebugRound(dataset, q2, "Q2");

  auto q3 = std::make_shared<mc::UnionBlocker>(
      std::vector<std::shared_ptr<const mc::Blocker>>{
          q1, std::make_shared<mc::EditDistanceBlocker>(
                  mc::KeyFunction(mc::KeyFunction::Kind::kLastWord, name_col),
                  2)});
  DebugRound(dataset, q3, "Q3");

  std::cout << "\nEach revision raises recall; when MatchCatcher stops "
               "surfacing true matches,\nthe blocker is ready.\n";
  return 0;
}
