#ifndef MATCHCATCHER_SSJ_JOIN_PLANNER_H_
#define MATCHCATCHER_SSJ_JOIN_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "blocking/candidate_set.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "ssj/topk_list.h"
#include "text/similarity.h"
#include "util/run_context.h"

namespace mc {

/// How a planned join executes. Both modes return a bit-identical list —
/// the mode moves work, never results (TopKJoinOptions::prefilter_threshold
/// contract).
enum class JoinExecMode {
  /// Classic prefix-event top-k engine (RunTopKJoin, no prefilter).
  kTopK,
  /// Classic engine with every pruning bound tightened to
  /// max(k-th, sampled threshold); restarts if the threshold overshot.
  kHybridPrefilter,
};

/// Short stable name for a JoinExecMode ("topk", "hybrid") — used by
/// --explain-plans and the bench records.
const char* JoinExecModeName(JoinExecMode mode);

/// Inputs to the cost-based join planner (ShallowBlocker-style: sampled
/// cost model + hybrid threshold/top-k execution).
struct PlannerOptions {
  /// Top-k size of the join being planned.
  size_t k = 1000;
  SetMeasure measure = SetMeasure::kJaccard;
  /// Blocker output C — the same exclusion the planned join will run with,
  /// so sampled counts see the same pair space.
  const CandidateSet* exclude = nullptr;
  /// Largest candidate q (paper §4.1 tries q = 1..4). The planner further
  /// caps candidates by the corpus length distribution: a q most table-A
  /// rows cannot reach answers a much smaller query space and would win
  /// the cost comparison by doing less useful work.
  size_t max_q = 4;
  /// Systematic sample rate N: the probe joins run over the table-A rows
  /// congruent to (seed mod N). 0 = auto, sized so the sample holds a few
  /// hundred rows.
  size_t sample_rate = 0;
  /// Sample-offset seed. 0 reads MC_PLANNER_SEED from the environment
  /// (fixed default when unset). Plans are deterministic for a fixed seed:
  /// the cost model compares extrapolated *operation counts* under fixed
  /// weights, never wall-clock timings.
  uint64_t seed = 0;
  /// Upper bound for the shard-count hint; 0 = hardware concurrency.
  size_t max_shards = 0;
  /// Allow the hybrid threshold/top-k prefilter decision. Off forces
  /// JoinPlan::prefilter_threshold < 0 (classic execution); the join output
  /// is identical either way.
  bool enable_hybrid = true;
  /// Has no effect. Kept only because the session benchmark's staged twin
  /// still assigns it; deleted along with that twin (ROADMAP: "Trace the
  /// real code path, then delete the staged twin").
  bool enable_threshold = true;
  /// Cooperative cancellation for the sampling probes. A cancelled planner
  /// returns the conservative plan (q = 1, one shard, no hybrid) with
  /// JoinPlan::truncated set.
  RunContext run_context;
};

/// The planner's decision plus the evidence behind it. Only q,
/// prefilter_threshold, and shards change *how* the join runs; none of them
/// change what any given plan returns (bit-identity contract of
/// TopKJoinOptions::prefilter_threshold and the canonical shard merge).
struct JoinPlan {
  /// Chosen QJoin deferred-scoring parameter (argmin of the cost model).
  size_t q = 1;
  /// Shard-count hint for the root config, derived from the extrapolated
  /// event volume (more shards than events can fill only add B-side
  /// re-walk overhead).
  size_t shards = 1;
  /// Hybrid prefilter threshold for TopKJoinOptions::prefilter_threshold;
  /// < 0 when the hybrid mode is off for this plan.
  double prefilter_threshold = -1.0;
  /// True when the sampled k-th estimate stabilized across nested samples
  /// and seeds the hybrid threshold pass (prefilter_threshold then holds
  /// min(sampled_kth, half_sample_kth); an overshoot of the true k-th is
  /// absorbed by the engine's restart path, never the output).
  bool hybrid = false;
  /// Execution mode the plan selects: kHybridPrefilter exactly when
  /// `hybrid` is set.
  JoinExecMode mode = JoinExecMode::kTopK;

  // --- evidence / diagnostics ---
  /// Systematic sample rate actually used and the rows it selected.
  size_t sample_rate = 0;
  size_t sample_rows = 0;
  /// Rank-scaled k-th estimates at the chosen q: the ceil(k/N)-th score of
  /// the 1-in-N sample probe and of the nested half sample (-1 when the
  /// probe could not fill that many pairs).
  double sampled_kth = -1.0;
  double half_sample_kth = -1.0;
  /// Generation of the corpus statistics the plan was computed from.
  uint64_t stats_generation = 0;
  /// Resolved seed (options, environment, or default).
  uint64_t seed = 0;
  /// Modeled cost per candidate q (index q - 1; trailing candidates the
  /// length-coverage cap excluded are absent). Exact for every q whose
  /// probe ran to completion; for a q in `abandoned_q_mask` it is the cost
  /// at the point the probe was abandoned — a lower bound on that q's
  /// complete cost, already strictly above the chosen q's.
  std::vector<double> cost_per_q;
  /// Bit q - 1 is set when the branch-and-bound ladder abandoned q's probe
  /// once its running cost passed the best complete cost so far.
  uint32_t abandoned_q_mask = 0;
  /// Extrapolated full-run volumes at the chosen q.
  uint64_t est_events = 0;
  uint64_t est_scored = 0;
  /// True when sampling was cut short (run_context): the plan is the
  /// conservative default, not a modeled decision.
  bool truncated = false;
};

/// Resolves the planner seed: MC_PLANNER_SEED when it is a full unsigned
/// decimal string that fits in 64 bits (no sign, whitespace or trailing
/// characters), else a fixed default. Exposed for tests and tools.
uint64_t PlannerSeedFromEnv();

/// The winning probe join of a plan whose sample is the whole table
/// (sample rate 1 on both sides). Its inputs are exactly those of the
/// unsampled join — same view, k, q, measure and exclusion, no seed — so by
/// the canonical-list contract (RunTopKJoin) its list *is* that join's
/// result, and its counters are that join's counters.
struct PlannerProbe {
  TopKList list;
  TopKJoinStats stats;
};

/// Plans the top-k join of `view` (a view of `corpus`): collects the
/// per-generation corpus statistics, runs one seeded systematic-sample
/// probe join per candidate q — the probe *is* a shard sub-join, so its
/// engine, bounds, and counters match real execution exactly — extrapolates
/// the operation counts to the full table, and picks the cheapest plan
/// under the fixed CostWeights. Candidates run in descending q order,
/// and every probe after the first is abandoned once its running cost
/// passes the best complete cost so far (branch and bound); the chosen plan
/// is the one an exhaustive ladder would pick. Deterministic for a fixed
/// seed on a fixed corpus generation. See docs/algorithms.md §"The
/// cost-based join planner".
///
/// `whole_table_probe` (optional) receives the winning probe when the
/// sample rate is 1 and the plan is not truncated; it is reset otherwise.
JoinPlan PlanTopKJoin(const SsjCorpus& corpus, const ConfigView& view,
                      const PlannerOptions& options,
                      std::optional<PlannerProbe>* whole_table_probe = nullptr);

}  // namespace mc

#endif  // MATCHCATCHER_SSJ_JOIN_PLANNER_H_
