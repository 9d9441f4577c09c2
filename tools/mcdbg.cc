// mcdbg — command-line MatchCatcher.
//
// Debug a blocker's output from CSV files:
//
//   mcdbg A.csv B.csv C.csv [options]
//
// A.csv and B.csv are the two tables (same header). C.csv is the blocker
// output: a header line "a,b" followed by 0-based row-index pairs that
// SURVIVED blocking. mcdbg surfaces plausible killed-off matches and runs
// the interactive verification loop on stdin (label each shown pair y/n),
// or automatically against --gold labels.
//
// Options:
//   --k N            top-k per config (default 1000)
//   --n N            pairs shown per iteration (default 20)
//   --q N            QJoin q; 0 = planner picks, 1 = TopKJoin (default 2)
//   --threads N      joint executor workers (default: all cores)
//   --iterations N   stop after N iterations (default: natural stop)
//   --gold FILE      gold matches CSV ("a,b"): label automatically
//   --out FILE       write confirmed matches CSV to FILE
//   --save FILE      save the labels for a later sitting
//   --resume FILE    restore labels saved with --save (same A/B/C inputs)

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "blocking/candidate_set.h"
#include "core/match_catcher.h"
#include "core/session_io.h"
#include "explain/repair.h"
#include "table/csv.h"

namespace {

struct Args {
  std::string table_a, table_b, candidates;
  std::string gold;
  std::string out;
  std::string save_labels;
  std::string resume_labels;
  size_t k = 1000;
  size_t n = 20;
  size_t q = 2;
  size_t threads = 0;
  size_t iterations = 0;  // 0 = natural stop.
};

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " A.csv B.csv C.csv [--k N] [--n N] [--q N] [--threads N]"
               " [--iterations N] [--gold FILE] [--out FILE]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--k") {
      const char* v = next();
      if (v == nullptr) return false;
      args->k = std::stoul(v);
    } else if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      args->n = std::stoul(v);
    } else if (arg == "--q") {
      const char* v = next();
      if (v == nullptr) return false;
      args->q = std::stoul(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      args->threads = std::stoul(v);
    } else if (arg == "--iterations") {
      const char* v = next();
      if (v == nullptr) return false;
      args->iterations = std::stoul(v);
    } else if (arg == "--gold") {
      const char* v = next();
      if (v == nullptr) return false;
      args->gold = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out = v;
    } else if (arg == "--save") {
      const char* v = next();
      if (v == nullptr) return false;
      args->save_labels = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (v == nullptr) return false;
      args->resume_labels = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 3) return false;
  args->table_a = positional[0];
  args->table_b = positional[1];
  args->candidates = positional[2];
  return true;
}

// Loads an "a,b" row-index pair CSV into a CandidateSet.
mc::Result<mc::CandidateSet> LoadPairs(const std::string& path,
                                       size_t rows_a, size_t rows_b) {
  mc::Result<mc::Table> table = mc::ReadCsvFile(path);
  if (!table.ok()) return table.status();
  if (table->num_columns() < 2) {
    return mc::Status::InvalidArgument(path +
                                       ": expected two columns (a,b)");
  }
  mc::CandidateSet pairs;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    std::optional<double> a = table->NumericValue(r, 0);
    std::optional<double> b = table->NumericValue(r, 1);
    if (!a.has_value() || !b.has_value() || *a < 0 || *b < 0 ||
        *a >= static_cast<double>(rows_a) ||
        *b >= static_cast<double>(rows_b)) {
      return mc::Status::InvalidArgument(
          path + ": bad pair at data row " + std::to_string(r));
    }
    pairs.Add(static_cast<mc::RowId>(*a), static_cast<mc::RowId>(*b));
  }
  return pairs;
}

// Interactive oracle: asks the terminal user for each pair.
class StdinOracle : public mc::UserOracle {
 public:
  explicit StdinOracle(const mc::DebugSession* session) : session_(session) {}

  bool IsMatch(mc::PairId pair) override {
    std::cout << "\n" << session_->ExplainPair(pair)
              << "match? [y/N] " << std::flush;
    std::string line;
    if (!std::getline(std::cin, line)) return false;
    return !line.empty() && (line[0] == 'y' || line[0] == 'Y');
  }

 private:
  const mc::DebugSession* session_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  mc::Result<mc::Table> table_a = mc::ReadCsvFile(args.table_a);
  if (!table_a.ok()) {
    std::cerr << args.table_a << ": " << table_a.status().ToString() << "\n";
    return 1;
  }
  mc::Result<mc::Table> table_b = mc::ReadCsvFile(args.table_b);
  if (!table_b.ok()) {
    std::cerr << args.table_b << ": " << table_b.status().ToString() << "\n";
    return 1;
  }
  mc::Result<mc::CandidateSet> candidates = LoadPairs(
      args.candidates, table_a->num_rows(), table_b->num_rows());
  if (!candidates.ok()) {
    std::cerr << candidates.status().ToString() << "\n";
    return 1;
  }
  std::cout << "A: " << table_a->num_rows() << " rows, B: "
            << table_b->num_rows() << " rows, |C| = " << candidates->size()
            << "\n";

  mc::MatchCatcherOptions options;
  options.joint.k = args.k;
  options.joint.q = args.q;
  options.joint.num_threads = args.threads;
  options.verifier.pairs_per_iteration = args.n;
  mc::Result<mc::DebugSession> session = mc::DebugSession::Create(
      *table_a, *table_b, *candidates, options);
  if (!session.ok()) {
    std::cerr << "MatchCatcher: " << session.status().ToString() << "\n";
    return 1;
  }
  std::cout << "config tree: " << session->config_tree().size()
            << " configs over " << session->attributes().size()
            << " promising attributes; |E| = "
            << session->CandidatePairs().size() << " candidates ("
            << session->topk_seconds() << "s)\n";

  mc::CandidateSet gold;
  bool use_gold = !args.gold.empty();
  if (use_gold) {
    mc::Result<mc::CandidateSet> loaded = LoadPairs(
        args.gold, table_a->num_rows(), table_b->num_rows());
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    gold = std::move(loaded).value();
  }

  mc::MatchVerifier verifier = session->MakeVerifier();
  if (!args.resume_labels.empty()) {
    mc::Result<std::vector<std::pair<mc::PairId, bool>>> resumed =
        mc::LoadLabeledPairs(args.resume_labels);
    if (!resumed.ok()) {
      std::cerr << resumed.status().ToString() << "\n";
      return 1;
    }
    verifier.PreloadLabels(*resumed);
    std::cout << "resumed " << resumed->size() << " labels ("
              << verifier.confirmed_matches().size()
              << " confirmed matches) from " << args.resume_labels << "\n";
  }
  mc::GoldOracle gold_oracle(&gold);
  StdinOracle stdin_oracle(&*session);
  mc::UserOracle& oracle =
      use_gold ? static_cast<mc::UserOracle&>(gold_oracle)
               : static_cast<mc::UserOracle&>(stdin_oracle);

  mc::VerifierResult result =
      args.iterations > 0 ? verifier.RunIterations(oracle, args.iterations)
                          : verifier.Run(oracle);

  std::cout << "\n" << result.confirmed_matches.size()
            << " killed-off matches confirmed over "
            << result.num_iterations() << " iterations ("
            << result.pairs_shown << " pairs examined)\n";
  // Sorted, so the printout, the summary (its example pairs) and --out do
  // not depend on the set's storage order.
  const std::vector<mc::PairId> confirmed =
      result.confirmed_matches.SortedPairs();
  for (mc::PairId pair : confirmed) {
    std::cout << "  (" << mc::PairRowA(pair) << ", " << mc::PairRowB(pair)
              << ")\n";
  }

  if (!confirmed.empty()) {
    std::cout << "\n"
              << mc::RenderProblemSummary(
                     session->table_a(), session->table_b(),
                     session->SummarizeProblems(confirmed))
              << "\n"
              << mc::RenderRepairs(
                     session->table_a().schema(),
                     mc::SuggestRepairs(session->table_a(),
                                        session->table_b(), confirmed));
  }

  if (!args.save_labels.empty()) {
    mc::Status saved =
        mc::SaveLabeledPairs(verifier.LabeledPairs(), args.save_labels);
    if (!saved.ok()) {
      std::cerr << saved.ToString() << "\n";
      return 1;
    }
    std::cout << "saved " << verifier.LabeledPairs().size() << " labels to "
              << args.save_labels << "\n";
  }

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "a,b\n";
    for (mc::PairId pair : confirmed) {
      out << mc::PairRowA(pair) << "," << mc::PairRowB(pair) << "\n";
    }
    if (!out) {
      std::cerr << "failed to write " << args.out << "\n";
      return 1;
    }
    std::cout << "wrote " << args.out << "\n";
  }
  return 0;
}
