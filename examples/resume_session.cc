// Debugging across sittings: label a couple of iterations today, save the
// session, resume tomorrow, finish, and get repair suggestions.
//
// Demonstrates core/session_io.h (top-k list + label persistence) and
// explain/repair.h (problem -> blocker revision suggestions).

#include <cstdio>
#include <iostream>

#include "blocking/metrics.h"
#include "blocking/standard_blockers.h"
#include "core/match_catcher.h"
#include "core/session_io.h"
#include "datagen/generator.h"
#include "explain/repair.h"

int main() {
  mc::datagen::GeneratedDataset dataset = mc::datagen::GenerateFodorsZagats();
  const mc::Table& a = dataset.table_a;
  const mc::Table& b = dataset.table_b;
  auto blocker = mc::HashBlocker::AttributeEquivalence(
      a.schema().RequireIndexOf("city"));
  mc::CandidateSet c = blocker->Run(a, b);
  std::cout << "blocker: " << blocker->Description(a.schema()) << " (|C| = "
            << c.size() << ")\n";

  mc::MatchCatcherOptions options;
  options.joint.k = 300;
  mc::Result<mc::DebugSession> session =
      mc::DebugSession::Create(a, b, c, options);
  if (!session.ok()) {
    std::cerr << session.status().ToString() << "\n";
    return 1;
  }
  mc::GoldOracle oracle(&dataset.gold);

  const std::string lists_path = "/tmp/mc_session_lists.mc";
  const std::string labels_path = "/tmp/mc_session_labels.csv";

  // --- Sitting 1: two iterations, then save and stop. -----------------
  {
    mc::MatchVerifier verifier = session->MakeVerifier();
    mc::VerifierResult partial = verifier.RunIterations(oracle, 2);
    std::cout << "sitting 1: " << partial.confirmed_matches.size()
              << " matches confirmed in 2 iterations; saving session\n";
    mc::Status saved = mc::SaveTopKLists(session->TopKLists(), lists_path);
    if (saved.ok()) {
      saved = mc::SaveLabeledPairs(verifier.LabeledPairs(), labels_path);
    }
    if (!saved.ok()) {
      std::cerr << saved.ToString() << "\n";
      return 1;
    }
  }

  // --- Sitting 2: restore and run to the natural stop. ----------------
  mc::Result<std::vector<std::vector<mc::ScoredPair>>> lists =
      mc::LoadTopKLists(lists_path);
  mc::Result<std::vector<std::pair<mc::PairId, bool>>> labels =
      mc::LoadLabeledPairs(labels_path);
  if (!lists.ok() || !labels.ok()) {
    std::cerr << "restore failed\n";
    return 1;
  }
  mc::MatchVerifier resumed(*lists, &session->extractor(),
                            mc::MatchCatcherOptions().verifier);
  resumed.PreloadLabels(*labels);
  std::cout << "sitting 2: resumed with " << labels->size() << " labels ("
            << resumed.confirmed_matches().size() << " matches)\n";
  mc::VerifierResult result = resumed.Run(oracle);
  std::cout << "final: " << result.confirmed_matches.size()
            << " killed-off matches after " << result.num_iterations()
            << " more iterations\n\n";

  const std::vector<mc::PairId> confirmed =
      result.confirmed_matches.SortedPairs();
  std::cout << mc::RenderRepairs(a.schema(),
                                 mc::SuggestRepairs(a, b, confirmed));

  // Apply the suggestions and report the recall change.
  std::vector<std::shared_ptr<const mc::Blocker>> members{blocker};
  for (const mc::RepairSuggestion& suggestion :
       mc::SuggestRepairs(a, b, confirmed)) {
    members.push_back(suggestion.addition);
  }
  mc::UnionBlocker repaired(members);
  mc::BlockerMetrics before = mc::EvaluateBlocking(
      c, dataset.gold, a.num_rows(), b.num_rows());
  mc::BlockerMetrics after = mc::EvaluateBlocking(
      repaired.Run(a, b), dataset.gold, a.num_rows(), b.num_rows());
  std::printf("\nrecall %.1f%% -> %.1f%% after applying the suggestions\n",
              before.recall * 100, after.recall * 100);

  std::remove(lists_path.c_str());
  std::remove(labels_path.c_str());
  return 0;
}
