#include "core/match_catcher.h"

#include <optional>
#include <sstream>
#include <unordered_set>

#include "explain/diagnosis.h"
#include "ssj/corpus.h"
#include "table/profile.h"
#include "table/tokenized_table.h"
#include "util/stopwatch.h"

namespace mc {

Result<DebugSession> DebugSession::Create(const Table& table_a,
                                          const Table& table_b,
                                          const CandidateSet& blocker_output,
                                          const MatchCatcherOptions& options) {
  // Table copies share their cells, so these copy no cell.
  return Create(std::make_shared<const Table>(table_a),
                std::make_shared<const Table>(table_b), blocker_output,
                options);
}

Result<DebugSession> DebugSession::Create(std::shared_ptr<const Table> a,
                                          std::shared_ptr<const Table> b,
                                          const CandidateSet& blocker_output,
                                          const MatchCatcherOptions& options) {
  DebugSession session;
  session.options_ = options;
  if (options.infer_types && !(a->schema() == b->schema())) {
    return Status::InvalidArgument("tables A and B must share one schema");
  }
  const bool build_plane = SharedTextPlane(*a, *b) == nullptr;
  // Inference profiles through the plane, so it runs after a plane build
  // below; over an attached plane it runs here, and tables that already
  // carry the inferred schema need no rewrite. Inference runs exactly once
  // when infer_types is set, and its profiles of table A serve attribute
  // selection too: both read the same cells and plane.
  std::optional<Schema> inferred;
  std::vector<AttributeProfile> profiles_a;
  if (options.infer_types && !build_plane) {
    inferred = InferAttributeTypes(*a, &profiles_a);
  }
  const bool rewrite_schema =
      options.infer_types && (build_plane || !(*inferred == a->schema()));
  if (build_plane || rewrite_schema) {
    // This session edits its own view of the tables (plane attach, schema
    // rewrite), so it takes copies; they share the caller's cells, and
    // neither edit writes a cell.
    Table mutable_a = *a;
    Table mutable_b = *b;
    if (build_plane) {
      // Tokenize once, before profiling: type inference, attribute
      // selection, corpus build, features, and repair all read this plane.
      // A truncated build (cancellation or a fault mid-plane) is simply not
      // attached; every stage then falls back to per-call string
      // tokenization, with bit-identical output
      // (tests/text_plane_equivalence_test.cc).
      Stopwatch plane_watch;
      TextPlaneBuildOptions plane_options;
      plane_options.num_threads = options.joint.num_threads;
      plane_options.run_context = options.run_context;
      plane_options.memory_budget = options.memory_budget;
      TokenizedTable::BuildAndAttach(mutable_a, mutable_b, plane_options);
      session.text_plane_seconds_ = plane_watch.ElapsedSeconds();
    }
    if (rewrite_schema) {
      if (!inferred.has_value()) {
        inferred = InferAttributeTypes(mutable_a, &profiles_a);
      }
      mutable_a.SetSchema(*std::move(inferred));
      mutable_b.SetSchema(mutable_a.schema());
    }
    a = std::make_shared<const Table>(std::move(mutable_a));
    b = std::make_shared<const Table>(std::move(mutable_b));
  }
  session.table_a_ = std::move(a);
  session.table_b_ = std::move(b);

  Stopwatch config_watch;
  ConfigGeneratorOptions config_options = options.config;
  config_options.run_context = options.run_context;
  if (options.cached_config != nullptr) {
    // Served from the service's memoized session plan: selection and tree
    // generation are deterministic for fixed tables and knobs, so this is
    // the exact pick a fresh run would compute.
    session.attributes_ = options.cached_config->attributes;
    session.tree_ = options.cached_config->tree;
  } else {
    MC_ASSIGN_OR_RETURN(
        session.attributes_,
        SelectPromisingAttributes(*session.table_a_, *session.table_b_,
                                  config_options,
                                  options.infer_types ? &profiles_a : nullptr));
    session.tree_ = GenerateConfigTree(session.attributes_, config_options);
    if (options.config_sink != nullptr) {
      options.config_sink(
          CachedConfigPick{session.attributes_, session.tree_});
    }
  }
  profiles_a = {};  // Their distinct-value sets are not needed past here.
  session.config_seconds_ = config_watch.ElapsedSeconds();

  if (options.run_context.Cancelled()) {
    return Status::DeadlineExceeded(
        "session creation cancelled before the joint top-k phase");
  }
  // Corpus sharing: when the service supplies a pre-built corpus for
  // exactly the columns this session selected, reuse it — MakeConfigView is
  // const and thread-safe, so N concurrent sessions on one table pair pay
  // one build. Anything else (no shared corpus, or the cached columns
  // guessed wrong) builds fresh and, when a sink is registered, publishes
  // the result for the next session.
  std::shared_ptr<const SsjCorpus> corpus;
  if (options.shared_corpus != nullptr &&
      options.shared_corpus_columns == session.attributes_.columns) {
    corpus = options.shared_corpus;
    session.used_shared_corpus_ = true;
  } else {
    CorpusBuildOptions build_options;
    build_options.num_threads = options.joint.num_threads;
    build_options.run_context = options.run_context;
    build_options.memory_budget = options.memory_budget;
    auto built = std::make_shared<SsjCorpus>(
        SsjCorpus::Build(*session.table_a_, *session.table_b_,
                         session.attributes_.columns, build_options));
    if (options.corpus_sink != nullptr && !built->truncated()) {
      options.corpus_sink(built, session.attributes_.columns);
    }
    corpus = std::move(built);
  }
  JointOptions joint_options = options.joint;
  joint_options.exclude = &blocker_output;
  joint_options.run_context = options.run_context;
  if (options.cached_plan != nullptr) {
    joint_options.cached_plan = options.cached_plan.get();
  }
  session.joint_ = RunJointTopKJoins(*corpus, session.tree_, joint_options);
  if (!session.joint_.task_error.ok()) return session.joint_.task_error;

  // Publish a freshly computed plan for cross-session reuse. Cache-served
  // and truncated plans never publish: the former is already cached, the
  // latter is the conservative fallback, not a modeled decision.
  if (options.plan_sink != nullptr && session.joint_.planner_used &&
      !session.joint_.plan_from_cache && !session.joint_.plan.truncated &&
      !session.joint_.truncated) {
    options.plan_sink(session.joint_.plan);
  }

  session.extractor_ = std::make_unique<PairFeatureExtractor>(
      session.table_a_.get(), session.table_b_.get());
  return session;
}

std::vector<std::vector<ScoredPair>> DebugSession::TopKLists() const {
  std::vector<std::vector<ScoredPair>> lists;
  lists.reserve(joint_.per_config.size());
  for (const ConfigJoinResult& result : joint_.per_config) {
    lists.push_back(result.topk);
  }
  return lists;
}

std::vector<PairId> DebugSession::CandidatePairs() const {
  std::vector<PairId> pairs;
  std::unordered_set<PairId, PairIdHash> seen;
  for (const ConfigJoinResult& result : joint_.per_config) {
    for (const ScoredPair& entry : result.topk) {
      if (seen.insert(entry.pair).second) pairs.push_back(entry.pair);
    }
  }
  return pairs;
}

MatchVerifier DebugSession::MakeVerifier() const {
  return MatchVerifier(TopKLists(), extractor_.get(), options_.verifier);
}

VerifierResult DebugSession::RunVerification(UserOracle& oracle) const {
  MatchVerifier verifier = MakeVerifier();
  return verifier.Run(oracle);
}

std::string DebugSession::ExplainPair(PairId pair) const {
  return RenderDiagnosis(*table_a_, *table_b_, pair,
                         DiagnosePair(*table_a_, *table_b_, pair));
}

std::vector<ProblemGroup> DebugSession::SummarizeProblems(
    const std::vector<PairId>& pairs) const {
  return mc::SummarizeProblems(*table_a_, *table_b_, pairs);
}

}  // namespace mc
