#include "ssj/join_planner.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "ssj/topk_join.h"
#include "ssj/topk_list.h"

namespace mc {

namespace {

// Fixed seed when neither PlannerOptions::seed nor MC_PLANNER_SEED is set
// (the golden-ratio constant; any fixed odd value works).
constexpr uint64_t kDefaultPlannerSeed = 0x9E3779B97F4A7C15ull;

// Auto sample sizing: pick the rate so the systematic sample holds about
// this many table-A rows. Large enough for the k-th score and the count
// extrapolation to be stable. Probe cost is dominated by pair-granular work
// in the (sampled A x sampled B) space and so shrinks quadratically with
// the rate — but below 2 * kTargetSampleRows table-A rows the rate is 1 and
// the "sample" is the whole table: each probe is a full join. There the
// branch-and-bound ladder cuts the losing probes short, and the joint
// executor reuses the winning probe as the root join (PlannerProbe).
constexpr size_t kTargetSampleRows = 256;

// Cost-model weights live in CostWeights (cost_model.h): an event is a heap
// pop plus an index append; a probe pays the positional bound and (often) a
// shared-prefix count; a scored pair pays a full-span merge whose length
// scales with the mean tuple length. The weights need only rank plans
// correctly, not predict wall time; for a fixed weight vector the argmin —
// and hence the plan — stays deterministic, unlike the wall-clock race it
// replaced.

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

// Shard-count hint: one shard per this many extrapolated events, so small
// joins are not decomposed into shards that mostly re-walk table B.
constexpr size_t kMinEventsPerShard = 1u << 18;

}  // namespace

uint64_t PlannerSeedFromEnv() {
  const char* env = std::getenv("MC_PLANNER_SEED");
  if (env == nullptr || *env == '\0') return kDefaultPlannerSeed;
  // Digits only, accumulated with an explicit overflow check: strtoull
  // would accept "12abc" as 12, wrap "-1" to 2^64 - 1, and saturate
  // overflow instead of rejecting them.
  uint64_t value = 0;
  for (const char* c = env; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return kDefaultPlannerSeed;
    const uint64_t digit = static_cast<uint64_t>(*c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return kDefaultPlannerSeed;
    }
    value = value * 10 + digit;
  }
  return value;
}

JoinPlan PlanTopKJoin(const SsjCorpus& corpus, const ConfigView& view,
                      const PlannerOptions& options,
                      std::optional<PlannerProbe>* whole_table_probe) {
  if (whole_table_probe != nullptr) whole_table_probe->reset();
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

  // Extrapolation: events are per (row, position), one stream per side,
  // each thinned by N — so event counts scale by N. Pair-granular counts
  // (probes, scored) live in the (sampled A x sampled B) space and scale
  // by N^2 (JoinCostModel).
  const double scale = static_cast<double>(rate);
  const double mean_len = (stats.mean_tokens_a + stats.mean_tokens_b) / 2.0;
  const JoinCostModel model{scale, mean_len};
  // B-side sample offset: the *same* residue as table A, deliberately — on
  // corpora whose matching rows are index-aligned (every generated bench
  // dataset), a different residue would exclude each sampled A row's
  // partner from the B sample and blind the probes to the score
  // distribution's head.
  const size_t b_rate = std::min<size_t>(rate, view.rows_b());
  const size_t b_offset = offset % b_rate;
  plan.cost_per_q.assign(max_q, 0.0);
  const size_t probe_k = ProbeK(options.k, rate);

  // Branch-and-bound q ladder. Candidates run in descending q (large q
  // defers scoring and usually wins on long tuples, so the first complete
  // cost is already a tight bound), and every probe after the first runs
  // under a budget equal to the best complete cost so far: the engine
  // abandons it at a poll point once its running cost is strictly above
  // the budget. The running cost is a lower bound on the complete cost
  // (JoinCostModel), so an abandoned q could never have been the argmin.
  // Ties go to the smaller q — the ascending ladder's rule — because a
  // complete probe replaces the best on <=, and an abandoned one was
  // strictly worse.
  size_t best_q = 0;
  std::optional<TopKList> best_list;
  TopKJoinStats best;
  for (size_t q = max_q; q >= 1; --q) {
    TopKJoinOptions probe;
    probe.k = probe_k;
    probe.measure = options.measure;
    probe.q = q;
    probe.exclude = options.exclude;
    probe.run_context = options.run_context;
    if (best_q != 0) {
      probe.cost_model = &model;
      probe.cost_budget = plan.cost_per_q[best_q - 1];
    }
    TopKJoinStats probe_stats;
    TopKList list =
        RunTopKJoinShard(view, probe, offset, rate, /*scorer=*/nullptr,
                         /*seed=*/nullptr, &probe_stats, b_offset, b_rate);
    plan.cost_per_q[q - 1] = model.Cost(
        probe_stats.events_popped,
        probe_stats.pairs_pruned + probe_stats.pairs_scored,
        probe_stats.pairs_scored);
    if (probe_stats.truncated) {
      plan.truncated = true;
      break;
    }
    if (probe_stats.abandoned) {
      plan.abandoned_q_mask |= 1u << (q - 1);
    } else if (best_q == 0 ||
               plan.cost_per_q[q - 1] <= plan.cost_per_q[best_q - 1]) {
      best_q = q;
      best_list.emplace(std::move(list));
      best = probe_stats;
    }
  }
  if (plan.truncated) {
    // Deadline hit mid-sample: fall back to the conservative exact-join
    // default instead of trusting partial counts.
    plan.q = 1;
    plan.shards = 1;
    return plan;
  }

  plan.q = best_q;
  plan.est_events = static_cast<uint64_t>(
      scale * static_cast<double>(best.events_popped));
  plan.est_scored = static_cast<uint64_t>(
      scale * scale * static_cast<double>(best.pairs_scored));

  // Shard hint from the extrapolated event volume. Sharding splits only the
  // table-A event stream (each shard re-walks table B), so shards beyond
  // what the events fill — or beyond the machine — only add overhead.
  const size_t max_shards =
      options.max_shards != 0
          ? options.max_shards
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  plan.shards = std::max<size_t>(
      1, std::min<size_t>(max_shards, plan.est_events / kMinEventsPerShard));

  if (whole_table_probe != nullptr && rate == 1) {
    whole_table_probe->emplace(PlannerProbe{std::move(*best_list), best});
  }
  return plan;
}

}  // namespace mc
