#ifndef MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_
#define MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "blocking/candidate_set.h"
#include "config/config_generator.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "ssj/topk_join.h"
#include "text/similarity.h"
#include "util/run_context.h"
#include "util/status.h"

namespace mc {

/// Options for joint execution of top-k SSJs over all configs (paper §4.2).
struct JointOptions {
  /// Top-k size per config.
  size_t k = 1000;
  SetMeasure measure = SetMeasure::kJaccard;
  /// QJoin deferred-scoring parameter; 0 lets the cost-based planner
  /// (src/ssj/join_planner.h) pick q per corpus — once, on the root config
  /// — along with a shard hint and the hybrid threshold/top-k prefilter.
  size_t q = 1;
  /// Planner sample seed; 0 = MC_PLANNER_SEED (fixed default when unset).
  /// Plans are deterministic for a fixed seed on a fixed corpus generation.
  uint64_t planner_seed = 0;
  /// Allow the planner's hybrid threshold/top-k prefilter on the root
  /// config (ablation switch; per-config output is bit-identical either
  /// way).
  bool planner_hybrid = true;
  /// Has no effect. Kept only because the session benchmark's staged twin
  /// still reads it; deleted along with that twin (ROADMAP: "Trace the real
  /// code path, then delete the staged twin").
  bool planner_threshold = true;
  /// Skip planning entirely and execute this plan (the service's
  /// cross-session plan cache). Only consulted when q == 0; the plan must
  /// have been produced by PlanTopKJoin on an identical corpus generation
  /// and config signature — the caller owns that invariant (SessionManager
  /// keys its cache by it).
  /// The executed output is bit-identical to planning fresh because the
  /// planner is deterministic for a fixed (seed, generation) and every plan
  /// executes to the same canonical lists. Not owned; must outlive the
  /// call.
  const JoinPlan* cached_plan = nullptr;
  /// Worker threads; 0 = hardware concurrency. Configs are scheduled
  /// parents-first over the config tree, and each config is decomposed
  /// into table-A shard sub-joins that run as independent pool tasks: a
  /// child starts only after its parent finished, so it seeds from the
  /// parent's final list. The output is bit-identical for every thread and
  /// shard count (each shard list is canonical under (score desc, pair
  /// asc)).
  size_t num_threads = 0;
  /// Table-A shards per config. 0 = auto:
  /// min(num_threads, hardware concurrency) — enough decomposition to fill
  /// the machine when ready configs are scarce (sharding splits only the
  /// table-A event stream; each shard re-walks table B, so shards beyond
  /// the core count only add overhead). The join output is independent of
  /// this value (canonical shard merge).
  size_t shards_per_config = 0;
  /// Stripe count for the shared OverlapCache. 0 = auto-sized from the
  /// expected pair volume via OverlapCache::RecommendShards(rows_a, rows_b,
  /// k, config count); the value actually used is reported in
  /// JointResult::overlap_cache_shards_used (bench sweeps set it
  /// explicitly).
  size_t overlap_cache_shards = 0;
  /// Reuse similarity-score computations through the shared overlap cache.
  bool reuse_overlaps = true;
  /// Seed each config's top-k list from its parent's re-adjusted list.
  bool reuse_topk = true;
  /// Overlap reuse triggers only when the average tuple length (in tokens,
  /// over the root config) is at least this (paper's t = 20).
  double reuse_min_avg_tokens = 20.0;
  /// Blocker output C: pairs to exclude from every top-k list.
  const CandidateSet* exclude = nullptr;
  /// Cooperative cancellation/deadline (util/run_context.h). When it fires,
  /// every running join stops at its next poll and unstarted configs are
  /// skipped; the result carries each config's best-so-far list with
  /// `ConfigJoinResult::completed == false` and `JointResult::truncated ==
  /// true`. Partial lists are still valid (every score exact, every pair in
  /// D), so the verifier can rank them — graceful degradation, not an
  /// error. The default inert context leaves behavior byte-identical to a
  /// run without deadlines.
  RunContext run_context;
};

/// Per-config outcome of the joint execution.
struct ConfigJoinResult {
  ConfigMask config = 0;
  /// Top-k pairs, ordered by (score desc, pair asc).
  std::vector<ScoredPair> topk;
  TopKJoinStats stats;
  double seconds = 0.0;
  /// Time spent building this config's token view (part of `seconds`).
  double view_seconds = 0.0;
  /// Table-A shard tasks this config's join was decomposed into.
  size_t shards_used = 1;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  bool seeded_from_parent = false;
  /// True for a root config whose list is the planner's winning whole-table
  /// probe (PlannerProbe): the root join was not run a second time. `stats`
  /// are the probe's counters, `shards_used` is 1 (the probe ran as one
  /// sequential join), and `seconds` covers only the hand-over — the join
  /// itself was paid inside JointStageTimings::q_select_seconds.
  bool from_planner_probe = false;
  /// False when this config's join was cut short (deadline/cancel) or its
  /// task failed; `topk` then holds the best-so-far list (possibly empty),
  /// not the exact top-k.
  bool completed = true;
};

/// One config's resolved execution plan, reported for diagnostics
/// (`tools/mcserve --explain-plans`). Node order matches
/// JointResult::per_config.
struct ConfigPlanDecision {
  ConfigMask config = 0;
  /// The q the config ran with (shared across the tree).
  size_t q = 1;
  /// Table-A shard tasks the config was decomposed into.
  size_t shards = 1;
  /// Whether the hybrid threshold/top-k prefilter was applied.
  bool hybrid = false;
  /// The prefilter threshold used (< 0 when hybrid is off).
  double prefilter_threshold = -1.0;
  /// Execution mode the config actually ran (kHybridPrefilter only on the
  /// root config when the hybrid gate applied).
  JoinExecMode mode = JoinExecMode::kTopK;
  bool seeded_from_parent = false;
};

/// Where the joint execution spent its time, aggregated across configs
/// (bench/micro_joint reports these alongside corpus-build timings).
struct JointStageTimings {
  /// The optional plan-selection phase (the cost-based planner; runs once,
  /// on the root view). At sample rate 1 it includes the root config's
  /// join, which the planner's winning probe already ran
  /// (ConfigJoinResult::from_planner_probe).
  double q_select_seconds = 0.0;
  /// Sum of per-config view construction times.
  double view_seconds = 0.0;
  /// Sum of per-config join execution times (shard runs + merge + seeding;
  /// per-config `seconds` minus `view_seconds`). Sums task time, not wall
  /// time: with parallel workers this exceeds the elapsed total_seconds.
  double join_seconds = 0.0;
};

/// Outcome of the whole joint execution, in config-tree node order.
struct JointResult {
  std::vector<ConfigJoinResult> per_config;
  double total_seconds = 0.0;
  /// Per-stage breakdown of total_seconds (see JointStageTimings).
  JointStageTimings stages;
  /// OverlapCache stripe count actually used (auto-sized or explicit).
  size_t overlap_cache_shards_used = 0;
  /// The q value actually used (after the optional planner).
  size_t q_used = 1;
  /// The cost-based plan, when the planner ran (q == 0);
  /// default-constructed otherwise.
  JoinPlan plan;
  bool planner_used = false;
  /// True when `plan` came from JointOptions::cached_plan instead of a
  /// fresh PlanTopKJoin run (the service's plan-cache hit path).
  bool plan_from_cache = false;
  /// Per-config resolved plan decisions, in config-tree node order.
  std::vector<ConfigPlanDecision> plan_decisions;
  /// Whether the overlap cache was active (average length reached t).
  bool overlap_reuse_active = false;
  /// True when any config did not complete (deadline, cancellation, or a
  /// failed task), or when the corpus itself was truncated mid-build — the
  /// partial-result flag of the graceful-degradation contract
  /// (docs/robustness.md).
  bool truncated = false;
  /// First error captured from a config task (a task that threw is caught
  /// at the pool boundary and converted to Status); OK when all tasks ran
  /// clean. The affected config has `completed == false`.
  Status task_error;
};

/// Runs one top-k SSJ per config of `tree` over `corpus`, in parallel, with
/// score-computation and top-k reuse across configs. With q = 1 each
/// config's result is exactly the top-k of D under that config (Theorem
/// 4.2). The per-config lists (pairs and scores) are bit-identical for
/// every num_threads/shards_per_config combination and match an
/// independent per-config RunTopKJoin — pinned by the joint_test property
/// suite and the joint determinism test.
JointResult RunJointTopKJoins(const SsjCorpus& corpus, const ConfigTree& tree,
                              const JointOptions& options);

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_
