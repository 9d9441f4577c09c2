#ifndef MATCHCATCHER_SSJ_TOPK_JOIN_H_
#define MATCHCATCHER_SSJ_TOPK_JOIN_H_

#include <cstddef>
#include <vector>

#include "blocking/candidate_set.h"
#include "ssj/corpus.h"
#include "ssj/cost_model.h"
#include "ssj/topk_list.h"
#include "text/similarity.h"
#include "util/run_context.h"

namespace mc {

/// Computes the exact similarity score of a pair under the active config.
/// The default (DirectPairScorer) merges the pair's token arrays; the joint
/// executor substitutes a caching scorer that reuses overlap computations
/// across configs (paper §4.2).
class PairScorer {
 public:
  virtual ~PairScorer() = default;
  virtual double Score(RowId row_a, RowId row_b) = 0;

  /// Bounded scoring: may return false as soon as the pair provably scores
  /// strictly below `threshold` (the caller's current k-th score), in which
  /// case *score is unspecified — the join engine treats false exactly as
  /// "TopKList::Add would have rejected this pair". Pairs that reach or tie
  /// the threshold must be scored exactly (return true with the exact
  /// score), because a tie can still displace a larger pair id. The default
  /// always scores in full, so plain scorers stay correct; scorers over
  /// sorted token spans override this to abandon merges early, matching the
  /// engine's inline fast path.
  virtual bool ScoreAbove(RowId row_a, RowId row_b, double threshold,
                          double* score) {
    (void)threshold;
    *score = Score(row_a, row_b);
    return true;
  }
};

/// Merge-scores from the config view's CSR token arena. Stateless per call:
/// safe to share across shard threads.
class DirectPairScorer : public PairScorer {
 public:
  DirectPairScorer(const ConfigView* view, SetMeasure measure)
      : view_(view), measure_(measure) {}

  double Score(RowId row_a, RowId row_b) override;

 private:
  const ConfigView* view_;
  SetMeasure measure_;
};

struct TopKJoinOptions {
  /// Number of pairs to retain.
  size_t k = 1000;
  /// Set similarity measure (Theorem 4.2: Jaccard, cosine, Dice, overlap).
  SetMeasure measure = SetMeasure::kJaccard;
  /// QJoin parameter: a pair's score is computed only once its discovered
  /// shared-prefix-token count reaches q. q = 1 reproduces TopKJoin [34]
  /// exactly; q > 1 is the paper's deferred-scoring heuristic.
  size_t q = 1;
  /// Pairs to skip — the blocker output C (killed-off search, Def. 2.2).
  const CandidateSet* exclude = nullptr;
  /// Cancellation cadence: run_context is checked once every poll_period
  /// popped prefix-extension events.
  size_t poll_period = 1024;
  /// Cooperative cancellation/deadline. When it fires mid-run the join
  /// stops at the next poll, returns its best-so-far list, and sets
  /// TopKJoinStats::truncated. The default inert context never fires and
  /// leaves the join byte-identical to an uncancellable run.
  RunContext run_context;
  /// Intra-config parallelism: number of table-A shards. 1 (the default)
  /// runs the sequential engine. With n > 1 the table-A event stream is
  /// split into n independent sub-joins (shard s owns rows with
  /// row % n == s, each joined against all of table B) executed on a
  /// ThreadPool of min(n, hardware_concurrency()) workers; the per-shard
  /// top-k lists are merged into the final list at the end. The merged
  /// result is *bit-identical* to the sequential run — every shard returns
  /// the canonical top-k of its sub-space under (score desc, pair asc), so
  /// the merge reproduces the canonical global list for any shard count
  /// and any thread scheduling. A custom `scorer` must tolerate concurrent
  /// Score calls when shards > 1 (DirectPairScorer does).
  size_t shards = 1;
  /// Hybrid threshold/top-k execution (TT-join style, driven by the cost
  /// planner of src/ssj/join_planner.h). < 0 (the default) is off: behavior
  /// is byte-identical to the classic engine. >= 0 runs a *pre-filter
  /// phase*: the event engine executes with pruning bound
  /// max(k-th score, prefilter_threshold), so pairs provably scoring below
  /// the threshold are skipped even while the list is still filling — the
  /// expensive low-bound warm-up is cut. If the phase ends with a full list
  /// whose k-th score reaches the threshold, its list is provably the
  /// canonical result (every skipped pair scores strictly below the final
  /// k-th score, so it cannot even tie into the list) and is returned
  /// as-is. Otherwise the threshold was too optimistic: the engine restarts
  /// without it, seeded with the phase's survivors (all exactly scored and
  /// q-eligible), which reproduces the non-hybrid result. Either way the
  /// output is *bit-identical* to the same options without the prefilter —
  /// the threshold moves work, never results (TopKJoinStats counts
  /// restarts).
  double prefilter_threshold = -1.0;
  /// Cost budget for the planner's branch-and-bound q ladder
  /// (ssj/join_planner.h). When set, the event engine prices this call's
  /// counters with `cost_model` at every poll point (next to the
  /// run_context check) and abandons the join once the cost is strictly
  /// above `cost_budget`: it returns its partial list and sets
  /// TopKJoinStats::abandoned. JoinCostModel::Cost never decreases as the
  /// counters grow, so an abandoned join's complete cost would have
  /// exceeded the budget too. Single-call engine only (RunTopKJoinShard,
  /// single-shard RunTopKJoin); sharded runs reject it. Null (the default)
  /// never abandons.
  const JoinCostModel* cost_model = nullptr;
  double cost_budget = 0.0;
};

/// Counters exposing where the join spends its effort; drives the QJoin-vs-
/// TopKJoin benchmarks. In sharded mode the counters are summed across
/// shards. The planner's cost model (ssj/cost_model.h) prices events,
/// probes (pruned + scored) and scored pairs, so every counter must stay
/// exact: an engine change that moves one changes plans.
/// bench/JOIN_CHECKSUMS.txt and TopKJoinCounterTest pin them.
struct TopKJoinStats {
  size_t events_popped = 0;
  /// Probes past the positional bound that find no earlier shared token,
  /// i.e. made at the pair's first shared token. A pair whose first shared
  /// token sits below position q - 1 in either row, or whose probe there is
  /// pruned, is never counted.
  size_t pairs_discovered = 0;
  size_t pairs_scored = 0;
  /// Probes discarded by the positional upper bound before the shared
  /// prefix is counted (a pair may be counted once per shared token here).
  /// Excludes probes with min(i, j) + 1 < q (i, j: the shared token's
  /// positions in the two rows), which cannot be a pair's q-th shared token
  /// and are skipped before any counter.
  size_t pairs_pruned = 0;
  /// Prefix tokens revealed, one per processed event, including those
  /// below position q - 1 that are never put in the index because no probe
  /// could use them.
  size_t tokens_indexed = 0;
  /// Hybrid prefilter phases whose threshold proved too optimistic (the
  /// engine restarted without it; see TopKJoinOptions::prefilter_threshold).
  /// Always 0 with the prefilter off. A well-chosen threshold — the
  /// planner's sampled k-th score is a lower bound on the true k-th — keeps
  /// this at 0.
  size_t prefilter_restarts = 0;
  /// True when the join was cancelled (run_context) before draining its
  /// event heap: the returned list is best-so-far, not the exact top-k.
  bool truncated = false;
  /// True when the join exceeded TopKJoinOptions::cost_budget and stopped
  /// at a poll point. The counters are the partial ones, so their modeled
  /// cost is a lower bound on the complete join's; the list is partial.
  /// Distinct from `truncated`: no deadline or cancellation fired.
  bool abandoned = false;
};

/// Runs the prefix-event top-k string similarity join over a config view.
///
/// `seed` (optional) holds already-scored pairs — a parent config's top-k
/// list with scores re-adjusted to this config — which initialize the list.
/// The engine may later re-derive and re-score a seeded pair; scoring is
/// deterministic and TopKList::Add updates in place, so the list is
/// unchanged. `scorer` may be null (DirectPairScorer is used). `stats` may
/// be null.
///
/// With q = 1 the result is exact and *canonical*: the returned list is the
/// unique k-minimum of D = A x B - C under the total order
/// (score desc, pair asc) — equal-score ties at the boundary are broken by
/// pair id, so the list is a pure function of the searched pair space,
/// independent of discovery order, shard count, and thread scheduling
/// (BruteForceTopK returns the same list). With q > 1 the result is the
/// canonical top-k restricted to pairs sharing at least q tokens (the
/// deferred-scoring heuristic never scores a pair whose overlap is below
/// q), unioned with any seeded pairs — pinned against brute force by the
/// SsjEquivalenceTest harness.
TopKList RunTopKJoin(const ConfigView& view, const TopKJoinOptions& options,
                     PairScorer* scorer = nullptr,
                     const std::vector<ScoredPair>* seed = nullptr,
                     TopKJoinStats* stats = nullptr);

/// Runs a single table-A shard sub-join (shard `shard` of `shard_count`:
/// rows with row % shard_count == shard joined against all of table B) on
/// the calling thread and returns its canonical top-k list. This is the
/// building block the joint executor's two-level scheduler uses to run one
/// config's shards as independent pool tasks: merging the shard lists of
/// shards 0..shard_count-1 (in any order) through TopKList::Add yields
/// exactly RunTopKJoin's list for the same options/seed.
/// `options.shards` is ignored; `seed` is offered to the shard like
/// RunTopKJoin's seed.
///
/// `b_shard`/`b_shard_count` optionally decompose the table-B event stream
/// the same way (rows with row % b_shard_count == b_shard), making the call
/// a 2-D shard over (A-residue x B-residue). Production shard merges keep
/// the default (full B: every shard sees the whole pair space it owns); the
/// planner's sampling probes pass a real decomposition so a probe's event
/// cost shrinks on *both* sides — without it, every probe still walks
/// table B's full event stream and costs as much as a full join.
TopKList RunTopKJoinShard(const ConfigView& view,
                          const TopKJoinOptions& options, size_t shard,
                          size_t shard_count, PairScorer* scorer = nullptr,
                          const std::vector<ScoredPair>* seed = nullptr,
                          TopKJoinStats* stats = nullptr, size_t b_shard = 0,
                          size_t b_shard_count = 1);

/// Reference implementation: scores every non-excluded pair whose token
/// overlap is at least `min_overlap` (0 admits even disjoint pairs, the
/// historical behavior; pass q to mirror RunTopKJoin's q-restricted
/// semantics). Quadratic; used by tests and tiny inputs only.
TopKList BruteForceTopK(const ConfigView& view, size_t k, SetMeasure measure,
                        const CandidateSet* exclude = nullptr,
                        size_t min_overlap = 0);

}  // namespace mc

#endif  // MATCHCATCHER_SSJ_TOPK_JOIN_H_
