#include "ssj/join_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "mem/topology.h"
#include "ssj/topk_join.h"
#include "ssj/topk_list.h"

namespace mc {

namespace {

// Fixed seed when neither PlannerOptions::seed nor MC_PLANNER_SEED is set
// (the golden-ratio constant; any fixed odd value works).
constexpr uint64_t kDefaultPlannerSeed = 0x9E3779B97F4A7C15ull;

// Auto sample sizing: pick the rate so the systematic sample holds about
// this many table-A rows. Large enough for the k-th score and the count
// extrapolation to be stable; small enough that probing every candidate q
// stays well under one full join — probe cost is dominated by pair-granular
// work in the (sampled A x sampled B) space and so shrinks quadratically
// with the rate.
constexpr size_t kTargetSampleRows = 256;

// Cost-model weights live in CostWeights (join_planner.h): an event is a
// heap pop plus an index append; a probe pays the positional bound and
// (often) a short prefix merge; a scored pair pays a full-span merge whose
// length scales with the mean tuple length. The weights need only rank
// plans correctly, not predict wall time; for a fixed weight vector the
// argmin — and hence the plan — stays deterministic, unlike the wall-clock
// race it replaced.

// Threshold-driver promotion cap: a hybrid-eligible plan runs the heap-free
// threshold driver only when at most this fraction of both tables' tokens
// survives prefix truncation at the sampled threshold. Above it the
// truncation strips too little for the up-front index build to beat the
// heap-driven prefilter pass, which shares the bound but keeps lazy
// extension scheduling.
constexpr double kMaxThresholdPrefixFraction = 0.75;

// A candidate q must be reachable by at least this fraction of table-A
// rows (CorpusPlannerStats::q_coverage_a); a q beyond most rows' length
// would "win" the cost comparison by answering a much smaller query space.
constexpr double kMinQCoverage = 0.5;

// Probe rank for a 1-in-N systematic sample: a probe joins the sampled
// table-A rows against the *same-residue* sampled table-B rows (the 2-D
// shard form of RunTopKJoinShard), so on row-aligned corpora the sample
// still holds about k/N of the full run's top-k pairs and the probe runs
// at ceil(k / N) — its k-th score then tracks the population k-th instead
// of a far weaker sample-at-full-k bound. Sampling both event streams is
// what makes a probe cost ~1/N of a full join: A-only sampling leaves the
// whole table-B event stream in the heap, and with the weak bound of a
// thinned pair space every probe drains it.
size_t ProbeK(size_t k, size_t rate) { return (k + rate - 1) / rate; }

// Hybrid switch: the sampled k-th score counts as stabilized when the full
// sample's k-th exceeds the nested half sample's by at most this relative
// tolerance. A stable k-th means doubling the sample barely moved the
// boundary, so the full run's k-th is unlikely to sit far above it — and
// the threshold it seeds will be reached (no restart).
constexpr double kKthStabilityTolerance = 0.05;

// Shard-count hint: one shard per this many extrapolated events, so small
// joins are not decomposed into shards that mostly re-walk table B.
constexpr size_t kMinEventsPerShard = 1u << 18;

}  // namespace

uint64_t PlannerSeedFromEnv() {
  const char* env = std::getenv("MC_PLANNER_SEED");
  if (env == nullptr || *env == '\0') return kDefaultPlannerSeed;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env) return kDefaultPlannerSeed;
  return static_cast<uint64_t>(value);
}

JoinPlan PlanTopKJoin(const SsjCorpus& corpus, const ConfigView& view,
                      const PlannerOptions& options) {
  JoinPlan plan;
  const CorpusPlannerStats& stats = corpus.PlannerStats();
  plan.stats_generation = stats.generation;
  plan.seed = options.seed != 0 ? options.seed : PlannerSeedFromEnv();

  const size_t rows_a = view.rows_a();
  if (rows_a == 0 || view.rows_b() == 0 || options.k == 0) {
    plan.cost_per_q.assign(1, 0.0);
    return plan;  // Nothing to join; the conservative default is free.
  }

  // Candidate q values, capped by the length distribution.
  size_t max_q = std::max<size_t>(1, std::min<size_t>(options.max_q, 4));
  while (max_q > 1 && stats.q_coverage_a[max_q - 1] < kMinQCoverage) {
    --max_q;
  }

  // Systematic sample: table-A rows congruent to (seed mod N). The probe
  // joins reuse the engine's shard decomposition, so a probe is a real
  // sub-join — same bounds, same counters, same arithmetic — over a
  // sample-row space whose q-eligible pairs are a subset of the full run's.
  size_t rate = options.sample_rate != 0
                    ? options.sample_rate
                    : std::max<size_t>(1, rows_a / kTargetSampleRows);
  rate = std::min(rate, rows_a);
  const size_t offset = plan.seed % rate;
  plan.sample_rate = rate;
  plan.sample_rows = (rows_a - offset + rate - 1) / rate;

  const double mean_len = (stats.mean_tokens_a + stats.mean_tokens_b) / 2.0;
  // Extrapolation: events are per (row, position), one stream per side,
  // each thinned by N — so event counts scale by N. Pair-granular counts
  // (probes, scored) live in the (sampled A x sampled B) space and scale
  // by N^2.
  const double scale = static_cast<double>(rate);
  const double pair_scale = scale * scale;
  // B-side sample offset: the *same* residue as table A, deliberately — on
  // corpora whose matching rows are index-aligned (every generated bench
  // dataset), a different residue would exclude each sampled A row's
  // partner from the B sample and blind the probes to the score
  // distribution's head.
  const size_t b_rate = std::min<size_t>(rate, view.rows_b());
  const size_t b_offset = offset % b_rate;
  std::vector<TopKJoinStats> probe_stats(max_q);
  std::vector<TopKList> probe_lists;
  probe_lists.reserve(max_q);
  plan.cost_per_q.assign(max_q, 0.0);
  const size_t probe_k = ProbeK(options.k, rate);
  for (size_t q = 1; q <= max_q; ++q) {
    TopKJoinOptions probe;
    probe.k = probe_k;
    probe.measure = options.measure;
    probe.q = q;
    probe.exclude = options.exclude;
    probe.run_context = options.run_context;
    probe_lists.push_back(RunTopKJoinShard(view, probe, offset, rate,
                                           /*scorer=*/nullptr,
                                           /*seed=*/nullptr,
                                           &probe_stats[q - 1], b_offset,
                                           b_rate));
    if (probe_stats[q - 1].truncated) plan.truncated = true;
  }
  // The q ladder is priced with the PINNED default weights, never the
  // calibrated fit: q is the one plan knob that changes which pairs are
  // eligible at all (a pair sharing fewer than q tokens is invisible to
  // the q-overlap index), so a fit drifting with observed wall times must
  // never flip it — plans, and with them the joined lists, stay
  // bit-identical across calibration states. The calibrated weights steer
  // the output-neutral decisions below (shard decomposition).
  const CostWeights pinned;
  auto modeled_cost = [&](const TopKJoinStats& s, const CostWeights& w) {
    const double events = static_cast<double>(s.events_popped);
    const double probes =
        static_cast<double>(s.pairs_pruned + s.pairs_scored);
    const double scored = static_cast<double>(s.pairs_scored);
    return scale * events * w.event +
           pair_scale * (probes * w.probe +
                         scored * (w.score_base + w.score_token * mean_len));
  };
  for (size_t q = 1; q <= max_q; ++q) {
    plan.cost_per_q[q - 1] = modeled_cost(probe_stats[q - 1], pinned);
  }
  if (plan.truncated) {
    // Deadline hit mid-sample: fall back to the conservative exact-join
    // default instead of trusting partial counts.
    plan.q = 1;
    plan.shards = 1;
    return plan;
  }

  size_t best_q = 1;
  for (size_t q = 2; q <= max_q; ++q) {
    if (plan.cost_per_q[q - 1] < plan.cost_per_q[best_q - 1]) best_q = q;
  }
  plan.q = best_q;
  const TopKJoinStats& best = probe_stats[best_q - 1];
  plan.est_events = static_cast<uint64_t>(
      scale * static_cast<double>(best.events_popped));
  plan.est_scored = static_cast<uint64_t>(
      pair_scale * static_cast<double>(best.pairs_scored));

  // Shard hint from the extrapolated event volume. Sharding splits only the
  // table-A event stream (each shard re-walks table B), so shards beyond
  // what the events fill — or beyond the machine — only add overhead.
  // This is where the calibrated weights bite: the fit rescales the modeled
  // cost of the chosen q relative to the pinned defaults, and a join whose
  // probes/scores got relatively costlier fills a shard with fewer events.
  // Safe by construction — the shard merge is canonical at every count, so
  // calibration moves wall time, never bytes; with default weights the
  // ratio is exactly 1 and the hint matches the uncalibrated planner.
  const size_t max_shards =
      options.max_shards != 0
          ? options.max_shards
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  const double pinned_cost = plan.cost_per_q[best_q - 1];
  const double calibrated_cost =
      modeled_cost(probe_stats[best_q - 1], options.weights);
  const double cost_scale =
      pinned_cost > 0.0
          ? std::clamp(calibrated_cost / pinned_cost, 1.0 / 16.0, 16.0)
          : 1.0;
  plan.shards = std::max<size_t>(
      1, std::min<size_t>(
             max_shards,
             static_cast<size_t>(static_cast<double>(plan.est_events) *
                                 cost_scale / kMinEventsPerShard)));
  // On multi-node machines the two-level executor folds the shards into one
  // A-row window per NUMA node; rounding the hint up to a node multiple
  // keeps those per-node groups equal-sized (no node finishing early and
  // idling its memory). Only when the join is worth decomposing at all, and
  // never past the machine cap. The hint moves work placement, not results.
  const size_t nodes = mem::SystemTopology::Get().num_nodes();
  if (plan.shards > 1 && nodes > 1) {
    const size_t rounded = ((plan.shards + nodes - 1) / nodes) * nodes;
    plan.shards = std::min(std::max<size_t>(rounded, nodes), max_shards);
  }

  // Hybrid decision: seed the threshold pass with the sampled k-th estimate
  // when it stabilized across nested samples. The full sample's rank-scaled
  // k-th (ceil(k/N)-th of a 1-in-N sample) estimates the true k-th; the
  // nested half sample (same offset, doubled rate, rank rescaled) estimates
  // the same quantile from half the rows. When the two agree the estimate
  // is trustworthy and the threshold phase ends with k-th >= threshold; when
  // the estimate still overshoots the true k-th, the engine's restart path
  // re-runs unbounded and the output stays bit-identical — the hybrid seed
  // is a pure performance hint. Taking the min of the two estimates biases
  // the seed low, trading a little pruning for restart headroom. Only
  // planned for single-shard execution — a shard's sub-space k-th can sit
  // below the full-space estimate, which would force per-shard restarts.
  if (options.enable_hybrid && plan.shards == 1 && rate * 2 <= rows_a) {
    const TopKList& full_sample = probe_lists[best_q - 1];
    if (full_sample.full()) {
      plan.sampled_kth = full_sample.KthScore();
      TopKJoinOptions probe;
      probe.k = ProbeK(options.k, rate * 2);
      probe.measure = options.measure;
      probe.q = best_q;
      probe.exclude = options.exclude;
      probe.run_context = options.run_context;
      TopKJoinStats half_stats;
      const size_t half_b_rate = std::min<size_t>(rate * 2, view.rows_b());
      TopKList half_sample =
          RunTopKJoinShard(view, probe, offset, rate * 2, /*scorer=*/nullptr,
                           /*seed=*/nullptr, &half_stats,
                           offset % half_b_rate, half_b_rate);
      if (!half_stats.truncated && half_sample.full()) {
        plan.half_sample_kth = half_sample.KthScore();
        const double drift =
            std::abs(plan.sampled_kth - plan.half_sample_kth);
        if (drift <=
            kKthStabilityTolerance * std::max(plan.sampled_kth, 1e-12)) {
          plan.hybrid = true;
          plan.prefilter_threshold =
              std::min(plan.sampled_kth, plan.half_sample_kth);
          plan.mode = JoinExecMode::kHybridPrefilter;
          // Threshold-driver promotion: estimate how much of both tables'
          // token mass the fixed bound strips. The truncated prefix length
          // is a pure function of (measure, length, q, threshold), so the
          // fraction — and hence the mode — is deterministic for a fixed
          // plan.
          size_t kept = 0;
          size_t total = 0;
          for (size_t row = 0; row < view.rows_a(); ++row) {
            const size_t len = view.a(row).size();
            kept += ThresholdPrefixLength(options.measure, len, best_q,
                                          plan.prefilter_threshold);
            total += len;
          }
          for (size_t row = 0; row < view.rows_b(); ++row) {
            const size_t len = view.b(row).size();
            kept += ThresholdPrefixLength(options.measure, len, best_q,
                                          plan.prefilter_threshold);
            total += len;
          }
          plan.threshold_prefix_fraction =
              total == 0 ? 1.0
                         : static_cast<double>(kept) /
                               static_cast<double>(total);
          if (options.enable_threshold &&
              plan.threshold_prefix_fraction <= kMaxThresholdPrefixFraction) {
            plan.mode = JoinExecMode::kThreshold;
          }
        }
      }
    }
  }
  return plan;
}

const char* JoinExecModeName(JoinExecMode mode) {
  switch (mode) {
    case JoinExecMode::kTopK:
      return "topk";
    case JoinExecMode::kHybridPrefilter:
      return "hybrid";
    case JoinExecMode::kThreshold:
      return "threshold";
  }
  return "unknown";
}

}  // namespace mc
