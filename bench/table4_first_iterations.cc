// Table 4: accuracy and explanations for the first 3 verifier iterations.
//
// The paper asked volunteers to label the first three iterations (7-10
// minutes) and write down the blocker problems they spotted. Our synthetic
// user labels from gold, and the "problems" column aggregates the injected
// corruption tags of the matches that surfaced — the same information a
// human reads off the pair explanations (printed for the first match).

#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/match_catcher.h"
#include "explain/summary.h"
#include "paper_blockers.h"

namespace mc {
namespace bench {
namespace {

void RunCase(const std::string& dataset_name, const std::string& blocker_label) {
  datagen::GeneratedDataset dataset = LoadDataset(dataset_name);
  std::shared_ptr<const Blocker> blocker;
  for (const PaperBlocker& paper_blocker :
       PaperBlockersFor(dataset_name, dataset.table_a.schema())) {
    if (paper_blocker.label == blocker_label) blocker = paper_blocker.blocker;
  }
  MC_CHECK(blocker != nullptr) << "unknown blocker" << blocker_label;
  CandidateSet c = blocker->Run(dataset.table_a, dataset.table_b);

  MatchCatcherOptions options;
  options.joint.k = 1000;
  options.joint.num_threads = EnvThreads();
  options.joint.q = EnvQ();
  Result<DebugSession> session =
      DebugSession::Create(dataset.table_a, dataset.table_b, c, options);
  MC_CHECK(session.ok()) << session.status().ToString();

  GoldOracle oracle(&dataset.gold);
  MatchVerifier verifier = session->MakeVerifier();
  VerifierResult result = verifier.RunIterations(oracle, 3);

  std::cout << "--- " << blocker_label << " (" << dataset.name << "): "
            << result.confirmed_matches.size() << " matches in 3 iterations ("
            << result.pairs_shown << " pairs examined)\n    problems: ";
  // Sorted, so the summary and the worked example do not depend on the
  // set's storage order.
  const std::vector<PairId> confirmed = result.confirmed_matches.SortedPairs();
  std::map<std::string, size_t> problems;
  for (PairId pair : confirmed) {
    auto it = dataset.problem_tags.find(pair);
    if (it == dataset.problem_tags.end()) continue;
    for (const std::string& tag : it->second) ++problems[tag];
  }
  bool first = true;
  for (const auto& [tag, count] : problems) {
    if (!first) std::cout << "; ";
    std::cout << tag << " (" << count << ")";
    first = false;
  }
  if (problems.empty()) std::cout << "(none surfaced)";
  std::cout << "\n";
  // The automatic explanation summary (§8 extension) — derived purely from
  // the data, to compare against the injected ground truth above.
  std::vector<ProblemGroup> groups = session->SummarizeProblems(confirmed);
  std::cout << "    auto-diagnosis:";
  size_t shown_groups = 0;
  for (const ProblemGroup& group : groups) {
    if (shown_groups++ == 5) break;
    std::cout << " "
              << dataset.table_a.schema().attribute(group.column).name << "/"
              << ProblemKindName(group.kind) << " (" << group.count() << ");";
  }
  std::cout << "\n";
  // One worked explanation, as the user would see it.
  if (!confirmed.empty()) {
    std::cout << "    example:\n";
    std::string explanation = session->ExplainPair(confirmed.front());
    // Indent.
    size_t start = 0;
    while (start < explanation.size()) {
      size_t end = explanation.find('\n', start);
      if (end == std::string::npos) end = explanation.size();
      std::cout << "      " << explanation.substr(start, end - start)
                << "\n";
      start = end + 1;
    }
  }
  std::cout << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace mc

int main() {
  std::cout << "=== Table 4: first three iterations — matches found and "
               "blocker problems ===\n\n";
  mc::bench::RunCase("A-G", "OL");
  mc::bench::RunCase("W-A", "HASH");
  mc::bench::RunCase("A-D", "SIM");
  mc::bench::RunCase("F-Z", "R");
  mc::bench::RunCase("M1", "R");
  return 0;
}
