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
  /// Count-all kernel (RunCountAllJoinShard): one overlap-counter
  /// increment, and one counter slot of the offer pass's sequential scan
  /// (CountAllWork). Unlike the weights above, these two must rank a
  /// count-all cost against an event-engine cost: the joint executor picks
  /// a config's kernel by comparing them. Calibrated on a 4-core x86-64
  /// host (docs/algorithms.md §"Count-all kernel") by timing both kernels,
  /// seeded as the executor seeds them, one thread, on every config of 16
  /// joint runs (A-G, W-A, M2, F-Z, A-D, M1) and replaying the choice rule
  /// over a grid of weights: total join time is flat for increments in
  /// 0.03-0.07 and slots in 0.02-0.04, where no run is slower than with
  /// the event engine alone; these are the middle of that plateau. They
  /// exceed the raw time ratios (about 2.0 ns per increment and 0.14 ns per
  /// slot against 31-121 ns per unit of event cost) because one unit of
  /// event cost takes 3x less time on M2 than on W-A.
  double count_increment = 0.05;
  double count_slot = 0.025;
};

/// Modeled cost of the count-all kernel over a whole view, priced from
/// CountAllJoinWork's exact counts in the units of JoinCostModel.
inline double CountAllCost(size_t increments, size_t slot_visits) {
  constexpr CostWeights weights{};
  return static_cast<double>(increments) * weights.count_increment +
         static_cast<double>(slot_visits) * weights.count_slot;
}

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
