#ifndef MATCHCATCHER_CORE_MATCH_CATCHER_H_
#define MATCHCATCHER_CORE_MATCH_CATCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blocking/candidate_set.h"
#include "config/config_generator.h"
#include "explain/summary.h"
#include "joint/joint_executor.h"
#include "joint/joint_repair.h"
#include "learn/features.h"
#include "ssj/corpus.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "util/memory_budget.h"
#include "util/status.h"
#include "verifier/match_verifier.h"
#include "verifier/user_oracle.h"

namespace mc {

/// A memoized Config Generator outcome: the promising attributes and the
/// config tree generated from them. Both are deterministic functions of the
/// input tables and the generator knobs, so the service caches them next to
/// the joint plan (same key, same invalidation) and warm sessions skip the
/// per-attribute e-score/value-set scan entirely.
struct CachedConfigPick {
  PromisingAttributes attributes;
  ConfigTree tree;
};

/// Top-level options for a MatchCatcher debugging session.
struct MatchCatcherOptions {
  ConfigGeneratorOptions config;
  /// Joint top-k execution; `joint.exclude` is set internally to the
  /// blocker output, any caller value is ignored.
  JointOptions joint;
  VerifierOptions verifier;
  /// Run rule-based attribute type inference on the inputs (recommended for
  /// freshly loaded CSVs whose schema types are all kString).
  bool infer_types = true;
  /// Which text data path the session runs on. kTokenized builds the
  /// tokenize-once TokenizedTable up front (unless the caller already
  /// attached one to both inputs) and every stage — profiling, corpus build,
  /// features, repair — reads spans from it. kLegacy detaches any plane and
  /// re-tokenizes strings per call; outputs are bit-identical either way
  /// (tests/text_plane_equivalence_test.cc), so kLegacy exists for
  /// before/after benchmarking and ablation.
  TextPlane text_plane = TextPlane::kTokenized;
  /// Cooperative cancellation/deadline for the whole Create() pipeline,
  /// propagated into config generation and the joint executor (overrides
  /// any context set on `config`/`joint`). Expiry during config generation
  /// fails Create() with kDeadlineExceeded (no partial result exists yet);
  /// expiry during the joint top-k phase still yields a session whose
  /// best-so-far lists are flagged via truncated() — see docs/robustness.md.
  RunContext run_context;

  // --- Service integration (src/service/session_manager.h) --------------
  /// Pre-built corpus to reuse instead of building one. Used only when
  /// `shared_corpus_columns` matches the promising attribute columns this
  /// session selects (a mismatch silently falls back to a fresh build —
  /// column selection is data-dependent, so the service's cached corpus is
  /// a guess until the first session on a pair confirms it). The corpus
  /// must have been built over these exact tables; the session keeps a
  /// reference for the joint phase only.
  std::shared_ptr<const SsjCorpus> shared_corpus;
  std::vector<size_t> shared_corpus_columns;
  /// Called with each freshly built non-truncated corpus and the columns it
  /// covers — the service's hook for populating its corpus cache so later
  /// sessions on the same table pair skip the build entirely.
  std::function<void(std::shared_ptr<const SsjCorpus>,
                     const std::vector<size_t>&)>
      corpus_sink;
  /// Called once after an *un-truncated* joint phase with the per-config
  /// lists and their seeding lineage — the service's hook for caching
  /// repairable top-k state, so a later table delta patches the lists
  /// (joint/joint_repair.h) instead of rerunning the joins. Truncated
  /// executions are never snapshotted: their lists are best-so-far, not
  /// canonical, and cannot anchor an exact repair.
  std::function<void(const JointListsSnapshot&)> joint_sink;
  /// Cached execution plan for the joint phase (the service's cross-session
  /// plan cache). When set and the joint phase would run the cost planner
  /// (joint.q == 0), the sampling probes are
  /// skipped and this plan executes directly — bit-identical output to
  /// planning fresh, because the planner is deterministic for a fixed
  /// (seed, corpus generation, weights) and every plan executes to the same
  /// canonical lists. The caller owns the invariant that the plan was
  /// computed on the same corpus generation and session configuration
  /// (SessionManager keys its cache by exactly that).
  std::shared_ptr<const JoinPlan> cached_plan;
  /// Called once with each freshly computed plan — planner ran, not served
  /// from `cached_plan`, and neither the plan nor the joint phase was
  /// truncated — the service's hook for populating its plan cache so later
  /// sessions on the same pair skip the probe joins entirely.
  std::function<void(const JoinPlan&)> plan_sink;
  /// Memoized Config Generator outcome to reuse instead of re-running
  /// attribute selection and tree generation. Same ownership contract as
  /// `cached_plan`: the caller guarantees it was computed on these exact
  /// tables under these exact generator knobs (SessionManager keys its
  /// cache by the config-affecting options and invalidates on every table
  /// delta), so reuse is bit-identical to recomputing.
  std::shared_ptr<const CachedConfigPick> cached_config;
  /// Called once with each freshly computed config pick (selection ran, not
  /// served from `cached_config`) — the companion of `plan_sink` for the
  /// config half of the memoized session plan.
  std::function<void(const CachedConfigPick&)> config_sink;
  /// Service-wide memory ceiling, threaded into the text-plane and corpus
  /// builds (see CorpusBuildOptions::memory_budget for the degradation
  /// contract). Must outlive the session.
  MemoryBudget* memory_budget = nullptr;
};

/// A MatchCatcher debugging session: given tables A, B and the output C of
/// some blocker (MatchCatcher never sees the blocker itself — it is blocker
/// independent), Create() runs the Config Generator and the joint top-k SSJs
/// to produce the candidate set E of plausible killed-off matches; the
/// verifier API then drives the interactive identification loop.
///
/// The session owns private copies of the tables, so the caller's tables may
/// be discarded after Create(). The shared_ptr overload shares immutable
/// tables instead — the zero-copy path the session service rides.
class DebugSession {
 public:
  static Result<DebugSession> Create(const Table& table_a,
                                     const Table& table_b,
                                     const CandidateSet& blocker_output,
                                     const MatchCatcherOptions& options = {});

  /// Zero-copy construction: the session shares `table_a`/`table_b` rather
  /// than copying them, so N sessions over one pair pay zero per-session
  /// table copies. The tables are only copied when this session must edit
  /// its view of them — TextPlane::kLegacy (detaches the plane),
  /// infer_types (rewrites the schema), or a missing text plane (built and
  /// attached here). The caller must not mutate the tables afterwards;
  /// replace-and-republish (the service's delta pattern) is fine because
  /// the session keeps its own references.
  static Result<DebugSession> Create(std::shared_ptr<const Table> table_a,
                                     std::shared_ptr<const Table> table_b,
                                     const CandidateSet& blocker_output,
                                     const MatchCatcherOptions& options = {});

  DebugSession(DebugSession&&) = default;
  DebugSession& operator=(DebugSession&&) = default;

  const Table& table_a() const { return *table_a_; }
  const Table& table_b() const { return *table_b_; }
  const PromisingAttributes& attributes() const { return attributes_; }
  const ConfigTree& config_tree() const { return tree_; }
  const JointResult& joint_result() const { return joint_; }
  const PairFeatureExtractor& extractor() const { return *extractor_; }

  /// Per-config top-k lists (sorted by score descending), in tree order.
  std::vector<std::vector<ScoredPair>> TopKLists() const;

  /// E: the distinct pairs across all top-k lists.
  std::vector<PairId> CandidatePairs() const;

  /// True when the joint top-k phase was cut short by the run context: the
  /// per-config lists are best-so-far (exact scores, possibly fewer than k
  /// pairs) rather than the full top-k. They remain valid verifier input.
  bool truncated() const { return joint_.truncated; }

  /// Wall-clock seconds of the top-k SSJ module (the paper's §6.4 metric).
  double topk_seconds() const { return joint_.total_seconds; }
  /// Wall-clock seconds of config generation.
  double config_seconds() const { return config_seconds_; }
  /// Wall-clock seconds of the tokenize-once text plane build (0 under
  /// TextPlane::kLegacy or when the caller supplied an attached plane).
  double text_plane_seconds() const { return text_plane_seconds_; }

  /// True when the joint phase ran over MatchCatcherOptions::shared_corpus
  /// instead of a freshly built one (service plane-sharing diagnostics).
  bool used_shared_corpus() const { return used_shared_corpus_; }

  /// Fresh Match Verifier over this session's top-k lists. The verifier
  /// borrows the session's feature extractor; the session must outlive it.
  MatchVerifier MakeVerifier() const;

  /// Runs the full verification loop against `oracle` to the natural stop.
  VerifierResult RunVerification(UserOracle& oracle) const;

  /// Human-readable per-attribute breakdown of a pair — the "Explanations"
  /// output in the paper's architecture (Figure 2): values side by side,
  /// similarity signals, and automatically diagnosed problems (missing
  /// value, misspelling, extra words, un-normalized case, ...). See
  /// explain/diagnosis.h for the classifier.
  std::string ExplainPair(PairId pair) const;

  /// Aggregates the diagnosed problems over `pairs` (typically the
  /// verifier's confirmed matches), sorted by pervasiveness — the §8
  /// "summarize these explanations" extension. Render with
  /// RenderProblemSummary (explain/summary.h).
  std::vector<ProblemGroup> SummarizeProblems(
      const std::vector<PairId>& pairs) const;

 private:
  DebugSession() = default;

  /// `owned` marks tables the implementation may mutate in place (private
  /// copies made by the copying overload); shared tables are copied on the
  /// first mutation instead.
  static Result<DebugSession> CreateShared(std::shared_ptr<const Table> a,
                                           std::shared_ptr<const Table> b,
                                           bool owned,
                                           const CandidateSet& blocker_output,
                                           const MatchCatcherOptions& options);

  std::shared_ptr<const Table> table_a_;
  std::shared_ptr<const Table> table_b_;
  MatchCatcherOptions options_;
  PromisingAttributes attributes_;
  ConfigTree tree_;
  JointResult joint_;
  std::unique_ptr<PairFeatureExtractor> extractor_;
  double config_seconds_ = 0.0;
  double text_plane_seconds_ = 0.0;
  bool used_shared_corpus_ = false;
};

}  // namespace mc

#endif  // MATCHCATCHER_CORE_MATCH_CATCHER_H_
