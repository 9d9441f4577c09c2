#ifndef MATCHCATCHER_SSJ_COST_MODEL_H_
#define MATCHCATCHER_SSJ_COST_MODEL_H_

#include <cstddef>

namespace mc {

/// Per-operation weights of the planner's cost model, in abstract units:
/// hand-tuned constants that need only rank plans correctly, not predict
/// wall time. The event weight is 1.0 (the model is scale-free).
struct CostWeights {
  /// Heap pop + index append, per prefix-extension event.
  double event = 1.0;
  /// Positional bound + stamped shared-prefix count, per probe.
  double probe = 0.5;
  /// Fixed part of a full-span scoring merge.
  double score_base = 4.0;
  /// Per-token part of a scoring merge (multiplied by the mean length).
  double score_token = 0.25;
};

/// The planner's modeled cost of a (possibly sampled) join, priced from the
/// engine's operation counters. Events are per (row, position), one thinned
/// stream per side, so they extrapolate by `scale` (the sample rate N);
/// probes (pruned + scored) and scored pairs live in the sampled pair space
/// and extrapolate by scale². See docs/algorithms.md §"The cost-based join
/// planner".
///
/// With non-negative weights the cost never decreases as the counters grow:
/// each term is a counter times a non-negative constant, and IEEE-754
/// multiplication by a non-negative constant and addition are both monotone
/// under round-to-nearest. A running join's cost is therefore a lower bound
/// on its final cost — the fact the planner's branch-and-bound q ladder
/// (TopKJoinOptions::cost_model) rests on.
struct JoinCostModel {
  double scale = 1.0;
  /// Mean token length of both tables (the scoring-merge length scale).
  double mean_len = 0.0;

  double Cost(size_t events, size_t probes, size_t scored) const {
    constexpr CostWeights weights{};
    const double pair_scale = scale * scale;
    return scale * static_cast<double>(events) * weights.event +
           pair_scale *
               (static_cast<double>(probes) * weights.probe +
                static_cast<double>(scored) *
                    (weights.score_base + weights.score_token * mean_len));
  }
};

}  // namespace mc

#endif  // MATCHCATCHER_SSJ_COST_MODEL_H_
