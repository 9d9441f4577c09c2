#ifndef MATCHCATCHER_SSJ_JOIN_PLANNER_H_
#define MATCHCATCHER_SSJ_JOIN_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blocking/candidate_set.h"
#include "ssj/corpus.h"
#include "text/similarity.h"
#include "util/run_context.h"

namespace mc {

/// How a planned join executes. Every mode returns a bit-identical list —
/// the mode moves work, never results (TopKJoinOptions::prefilter_threshold
/// and RunThresholdJoin contracts).
enum class JoinExecMode {
  /// Classic prefix-event top-k engine (RunTopKJoin, no prefilter).
  kTopK,
  /// Classic engine with every pruning bound tightened to
  /// max(k-th, sampled threshold); restarts if the threshold overshot.
  kHybridPrefilter,
  /// Heap-free threshold-join driver (RunThresholdJoin): prefixes truncated
  /// at the sampled threshold up front, required-overlap bounds fixed for
  /// the whole pass; restarts into the classic engine if the threshold
  /// overshot.
  kThreshold,
};

/// Short stable name for a JoinExecMode ("topk", "hybrid", "threshold") —
/// used by --explain-plans and the bench records.
const char* JoinExecModeName(JoinExecMode mode);

/// Per-operation weights of the planner's cost model, in abstract units.
/// The defaults are the hand-tuned constants the planner shipped with; the
/// online calibrator (ssj/cost_calibrator.h) refits them from observed
/// executions. They need only rank plans correctly, not predict wall time,
/// and the event weight is pinned to 1.0 (the model is scale-free).
struct CostWeights {
  /// Heap pop + index append, per prefix-extension event.
  double event = 1.0;
  /// Positional bound + short prefix merge, per probe.
  double probe = 0.5;
  /// Fixed part of a full-span scoring merge.
  double score_base = 4.0;
  /// Per-token part of a scoring merge (multiplied by the mean length).
  double score_token = 0.25;
};

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
  /// Allow promoting a hybrid-eligible plan to the threshold-join driver
  /// (JoinExecMode::kThreshold) when the truncated-prefix estimate says the
  /// fixed bound removes enough work. Off caps the plan at
  /// kHybridPrefilter; the join output is identical either way.
  bool enable_threshold = true;
  /// Cost-model weights. Defaults to the hand-tuned constants; the service
  /// substitutes the online calibrator's current fit (MC_PLANNER_CALIBRATE).
  /// The fit steers only output-neutral plan knobs (the shard hint): the q
  /// ladder is always priced with the pinned defaults, because q changes
  /// which pairs are eligible at all and a fit that drifts with observed
  /// wall times must never change the joined bytes.
  CostWeights weights;
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
  /// Execution mode the plan selects. kHybridPrefilter and kThreshold imply
  /// hybrid (a stabilized sampled k-th seeds prefilter_threshold); the
  /// threshold driver is chosen when the truncated-prefix token fraction
  /// says the fixed bound strips enough of the event stream to beat the
  /// heap-driven prefilter pass.
  JoinExecMode mode = JoinExecMode::kTopK;

  // --- evidence / diagnostics ---
  /// Fraction of both tables' tokens that survive prefix truncation at the
  /// hybrid threshold (1.0 when no hybrid threshold was seeded) — the
  /// evidence behind the kThreshold promotion.
  double threshold_prefix_fraction = 1.0;
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
  /// length-coverage cap excluded are absent).
  std::vector<double> cost_per_q;
  /// Extrapolated full-run volumes at the chosen q.
  uint64_t est_events = 0;
  uint64_t est_scored = 0;
  /// True when sampling was cut short (run_context): the plan is the
  /// conservative default, not a modeled decision.
  bool truncated = false;
};

/// Resolves the planner seed: MC_PLANNER_SEED when set and parseable, else
/// a fixed default. Exposed for tests and tools.
uint64_t PlannerSeedFromEnv();

/// Plans the top-k join of `view` (a view of `corpus`): collects the
/// per-generation corpus statistics, runs one seeded systematic-sample
/// probe join per candidate q — the probe *is* a shard sub-join, so its
/// engine, bounds, and counters match real execution exactly — extrapolates
/// the operation counts to the full table, and picks the cheapest plan
/// under fixed per-operation weights. Deterministic for a fixed seed on a
/// fixed corpus generation. See docs/algorithms.md §"Cost-based join
/// planner".
JoinPlan PlanTopKJoin(const SsjCorpus& corpus, const ConfigView& view,
                      const PlannerOptions& options);

}  // namespace mc

#endif  // MATCHCATCHER_SSJ_JOIN_PLANNER_H_
