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
  /// — along with a shard hint, and each config's kernel by cost
  /// (ConfigPlanDecision::kernel). A fixed q runs the event kernel
  /// everywhere.
  size_t q = 1;
  /// Planner sample seed; 0 = MC_PLANNER_SEED (fixed default when unset).
  /// Plans are deterministic for a fixed seed on a fixed corpus generation.
  uint64_t planner_seed = 0;
  /// Have no effect. Kept only because the session benchmark's staged twin
  /// still assigns them; deleted along with that twin (ROADMAP: "Trace the
  /// real code path, then delete the staged twin").
  bool planner_hybrid = true;
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
  /// Table-A shard tasks this config's join was decomposed into.
  size_t shards_used = 1;
  /// The kernel that joined this config (see ConfigPlanDecision::kernel).
  JoinKernel kernel = JoinKernel::kEvent;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  bool seeded_from_parent = false;
  /// True for a root config whose list is the planner's winning whole-table
  /// probe (PlannerProbe): the root join was not run a second time. `stats`
  /// are the probe's counters, `shards_used` is 1 (the probe ran as one
  /// sequential join), and `seconds` covers only the hand-over — the join
  /// itself was paid inside the planner, before any config ran.
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
  bool seeded_from_parent = false;
  /// The kernel that joined the config. With a plan (q == 0, not
  /// truncated) each config compares the count-all kernel's exact modeled
  /// cost (CountAllCost of CountAllJoinWork) with an event-join estimate
  /// and runs count-all when it is strictly cheaper. The root's estimate is
  /// the plan's cost at its q (JoinPlan::cost_per_q); a child's is the
  /// modeled cost (JoinCostModel at scale 1) its nearest ancestor that ran
  /// the event kernel measured, or the root's estimate when none did.
  /// Without a plan every config runs the event kernel, and a root reused
  /// from the planner's probe ran it. Both kernels return the same lists,
  /// so the choice moves only counters and time.
  JoinKernel kernel = JoinKernel::kEvent;
};

/// Outcome of the whole joint execution, in config-tree node order.
struct JointResult {
  std::vector<ConfigJoinResult> per_config;
  double total_seconds = 0.0;
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
/// score-computation and top-k reuse across configs. A config's list is
/// the canonical top-k (score desc, pair asc) of its q-eligible pairs —
/// non-excluded pairs sharing at least q tokens under the config — plus
/// its seeds, the parent's list re-adjusted to the config (when
/// reuse_topk). With q = 1 a seed either shares a token, and so is
/// eligible, or scores 0 and is displaced by any eligible pair: once k
/// non-excluded pairs share a token the list is exactly the top-k of D
/// under the config (Theorem 4.2). With q > 1 a seed sharing fewer than q
/// tokens can stay in the list.
/// The per-config lists (pairs and scores) are bit-identical for every
/// num_threads/shards_per_config combination and kernel choice — pinned by
/// the joint_test property suite and the joint determinism test.
JointResult RunJointTopKJoins(const SsjCorpus& corpus, const ConfigTree& tree,
                              const JointOptions& options);

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_
