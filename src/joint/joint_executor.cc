#include "joint/joint_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "joint/caching_scorer.h"
#include "joint/overlap_cache.h"
#include "joint/parent_merge.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mc {

namespace {

// Everything the scheduler needs, threaded through one struct.
struct JointContext {
  JointContext(const SsjCorpus& corpus, const ConfigTree& tree,
               const JointOptions& options, JointResult& result, size_t q,
               bool overlap_reuse, OverlapCache& cache, size_t num_threads)
      : corpus(corpus),
        tree(tree),
        options(options),
        result(result),
        q(q),
        overlap_reuse(overlap_reuse),
        cache(cache),
        num_threads(num_threads) {}

  const SsjCorpus& corpus;
  const ConfigTree& tree;
  const JointOptions& options;
  JointResult& result;
  size_t q;
  bool overlap_reuse;
  OverlapCache& cache;
  size_t num_threads;
  // Resolved shard count per config: options.shards_per_config, else the
  // planner's hint, else 0 (auto: min(num_threads, hardware)).
  size_t shards_per_config = 0;
  // The planner's winning whole-table probe, when it ran the root join
  // already (fresh plan at sample rate 1): the root node hands it to
  // FinishNode instead of joining again. Null otherwise.
  PlannerProbe* root_probe = nullptr;
  // Kernel choice (ConfigPlanDecision::kernel): on only with a plan. The
  // root's event-join estimate is the plan's cost at its q at sample rate
  // 1 (negative, none, otherwise); a node that ran the event kernel prices
  // its own counters with `event_model`.
  bool choose_kernel = false;
  double root_event_estimate = 0.0;
  JoinCostModel event_model;

  std::mutex error_mutex;
  void RecordTaskError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (result.task_error.ok()) result.task_error = status;
  }

  /// Join options for one config, run under a derived context (each config
  /// gets a child of the session context).
  TopKJoinOptions JoinOptions(const RunContext& run_context) const {
    TopKJoinOptions join_options;
    join_options.k = options.k;
    join_options.measure = options.measure;
    join_options.q = q;
    join_options.exclude = options.exclude;
    join_options.run_context = run_context;
    return join_options;
  }
};

// ---------------------------------------------------------------------------
// Two-level scheduler.
//
// Level 1: configs are scheduled over the config tree parents-first — a
// config's setup task is submitted only after its parent wrote its final
// list, so every child seeds from a finished parent (no mid-run polling, no
// idle spinning). Level 2: each config's join is decomposed into table-A
// shard sub-joins (RunTopKJoinShard) that run as independent pool tasks, so
// the machine stays busy even when few configs are ready. The worker that
// set a config up runs its shard 0 itself, so a config is joined as soon as
// its view is built: at most one view per worker is waiting on its join.
//
// Determinism: every shard list is the canonical top-k of its sub-space
// under (score desc, pair asc), so the shard merge reproduces the
// sequential join's list exactly; parents-first makes the seeds — and hence
// every per-config list — identical for every thread count, shard count,
// and scheduling interleaving.
//
// Liveness: every setup path — cancelled, faulted, or normal — ends in
// Cascade, which submits the children's setups once the node's (possibly
// empty) final list is in place. No task ever blocks on another task, so a
// full drain of the pool is guaranteed; a failed parent yields one
// incomplete config, not an orphaned subtree.
// ---------------------------------------------------------------------------

class TwoLevelExecutor {
 public:
  TwoLevelExecutor(JointContext& ctx) : ctx_(ctx), nodes_(ctx.tree.size()) {
    for (size_t i = 0; i < ctx_.tree.size(); ++i) {
      const int32_t parent = ctx_.tree.nodes[i].parent;
      if (parent >= 0) nodes_[static_cast<size_t>(parent)].children.push_back(i);
    }
    shard_count_ = ctx_.shards_per_config != 0
                       ? ctx_.shards_per_config
                       : std::max<size_t>(
                             1, std::min<size_t>(
                                    ctx_.num_threads,
                                    std::max<size_t>(
                                        1, std::thread::hardware_concurrency())));
  }

  void Run() {
    pool_ = std::make_unique<ThreadPool>(ctx_.num_threads, "mc-joint");
    for (size_t i = 0; i < ctx_.tree.size(); ++i) {
      if (ctx_.tree.nodes[i].parent < 0) {
        pool_->Submit([this, i] { StartNode(i); });
      }
    }
    pool_->Wait();
    pool_.reset();
  }

 private:
  struct Node {
    std::vector<size_t> children;
    // Setup products; alive from StartNode until FinishNode (shard tasks
    // reference them).
    ConfigView view;
    std::vector<std::unique_ptr<CachingPairScorer>> scorers;  // Per shard.
    JoinKernel kernel = JoinKernel::kEvent;
    // The event-join cost estimate this node hands its children: its own
    // estimate, replaced by its measured modeled cost once it ran the
    // event kernel. Negative when there is none (no plan).
    double event_cost = -1.0;
    std::vector<ScoredPair> seed;
    bool use_seed = false;
    std::vector<TopKList> shard_lists;
    std::vector<TopKJoinStats> shard_stats;
    std::atomic<size_t> shards_remaining{0};
    std::atomic<bool> failed{false};
    // Child of the session context (RunContext::WithParent): the session's
    // cancel/deadline still stops every shard, while a failed shard cancels
    // only its sibling shards — other configs keep running.
    RunContext context;
    Stopwatch watch;
  };

  // Node-ready step: build the view and scorers, re-adjust the parent's
  // final list into the seed, fan shards 1.. out into pool tasks, and run
  // shard 0 on this worker.
  void StartNode(size_t index) {
    Node& node = nodes_[index];
    const ConfigNode& tree_node = ctx_.tree.nodes[index];
    ConfigJoinResult& out = ctx_.result.per_config[index];
    node.watch.Reset();
    out.config = tree_node.mask;
    out.completed = false;
    if (ctx_.choose_kernel) {
      node.event_cost =
          tree_node.parent >= 0
              ? nodes_[static_cast<size_t>(tree_node.parent)].event_cost
              : ctx_.root_event_estimate;
    }
    bool shards_started = false;
    try {
      if (ctx_.options.run_context.Cancelled()) {
        // Skipped entirely; children still cascade (and skip too).
        Cascade(index);
        return;
      }
      if (MC_FAULT_POINT("joint/run_node") == FaultKind::kThrow) {
        throw std::runtime_error("injected fault: joint/run_node " +
                                 std::to_string(index));
      }

      if (index == 0 && ctx_.root_probe != nullptr) {
        // Whole-table plan: the winning probe ran exactly this join (same
        // view, k, q, measure, exclusion; no seed), so its canonical list
        // is the root's. FinishNode still publishes the overlap cache and
        // cascades to the children.
        out.shards_used = 1;
        out.from_planner_probe = true;
        node.shard_lists.push_back(std::move(ctx_.root_probe->list));
        node.shard_stats.push_back(ctx_.root_probe->stats);
        FinishNode(index);
        return;
      }

      node.view = ctx_.corpus.MakeConfigView(tree_node.mask);
      out.shards_used = shard_count_;
      // Count-all's modeled cost is exact and O(view tokens); it runs only
      // when strictly below the event-join estimate (counting stops once
      // the cost reaches it).
      if (node.event_cost >= 0.0) {
        const CountAllWork work =
            CountAllJoinWork(node.view, node.event_cost);
        if (CountAllCost(work.increments, work.slot_visits) <
            node.event_cost) {
          node.kernel = JoinKernel::kCountAll;
        }
      }
      out.kernel = node.kernel;

      // Per-shard caching scorers: CachingPairScorer is single-threaded
      // (local snapshot + counters), so each shard gets its own instance
      // over the shared concurrent cache. Snapshots taken here — after the
      // parent finished — already contain every ancestor's kept pairs: each
      // config writes the k pairs that survived, once, at completion
      // (FinishNode), which is all a child's snapshot can observe anyway.
      // The count-all kernel counts overlaps itself and scores no pair
      // through a scorer, so it takes none.
      if (ctx_.overlap_reuse && node.kernel == JoinKernel::kEvent) {
        node.scorers.reserve(shard_count_);
        for (size_t s = 0; s < shard_count_; ++s) {
          node.scorers.push_back(std::make_unique<CachingPairScorer>(
              &node.view, tree_node.mask, ctx_.options.measure, &ctx_.cache));
        }
      }

      // Parents-first guarantee: the parent's FinishNode wrote its final
      // list before Cascade submitted this task (the pool orders the
      // write before this read), so the seed is always available and
      // immutable — children never poll.
      if (ctx_.options.reuse_topk && tree_node.parent >= 0) {
        const std::vector<ScoredPair>& parent =
            ctx_.result.per_config[static_cast<size_t>(tree_node.parent)].topk;
        if (!node.scorers.empty()) {
          node.seed = ReadjustToConfig(parent, node.view, *node.scorers[0]);
        } else {
          DirectPairScorer direct(&node.view, ctx_.options.measure);
          node.seed = ReadjustToConfig(parent, node.view, direct);
        }
        node.use_seed = true;
        out.seeded_from_parent = true;
      }

      node.context = RunContext::WithParent(ctx_.options.run_context);
      node.shard_lists.reserve(shard_count_);
      for (size_t s = 0; s < shard_count_; ++s) {
        node.shard_lists.emplace_back(ctx_.options.k);
      }
      node.shard_stats.assign(shard_count_, TopKJoinStats{});
      node.shards_remaining.store(shard_count_, std::memory_order_relaxed);
      for (size_t s = 1; s < shard_count_; ++s) {
        pool_->Submit([this, index, s] { RunShardTask(index, s); });
      }
      shards_started = true;
    } catch (const std::exception& e) {
      ctx_.RecordTaskError(
          Status::Internal(std::string("config task threw: ") + e.what()));
      node.failed.store(true, std::memory_order_relaxed);
      Cascade(index);
    } catch (...) {
      ctx_.RecordTaskError(
          Status::Internal("config task threw a non-std exception"));
      node.failed.store(true, std::memory_order_relaxed);
      Cascade(index);
    }
    // Outside the try: RunShardTask handles its own failures, and the last
    // shard to finish cascades.
    if (shards_started) RunShardTask(index, 0);
  }

  void RunShardTask(size_t index, size_t s) {
    Node& node = nodes_[index];
    try {
      if (MC_FAULT_POINT("joint/shard_task") == FaultKind::kThrow) {
        throw std::runtime_error("injected fault: joint/shard_task " +
                                 std::to_string(index) + "/" +
                                 std::to_string(s));
      }
      const std::vector<ScoredPair>* seed =
          node.use_seed ? &node.seed : nullptr;
      if (node.kernel == JoinKernel::kCountAll) {
        node.shard_lists[s] = RunCountAllJoinShard(
            node.view, ctx_.JoinOptions(node.context), s, shard_count_, seed,
            &node.shard_stats[s]);
      } else {
        PairScorer* scorer =
            node.scorers.empty() ? nullptr : node.scorers[s].get();
        node.shard_lists[s] = RunTopKJoinShard(
            node.view, ctx_.JoinOptions(node.context), s, shard_count_,
            scorer, seed, &node.shard_stats[s]);
      }
    } catch (const std::exception& e) {
      ctx_.RecordTaskError(
          Status::Internal(std::string("config task threw: ") + e.what()));
      node.failed.store(true, std::memory_order_relaxed);
      node.shard_stats[s].truncated = true;
      // The config is already lost; stop its sibling shards at their next
      // poll instead of letting them run the join to completion.
      node.context.Cancel();
    } catch (...) {
      ctx_.RecordTaskError(
          Status::Internal("config task threw a non-std exception"));
      node.failed.store(true, std::memory_order_relaxed);
      node.shard_stats[s].truncated = true;
      node.context.Cancel();
    }
    // The last shard to finish merges and cascades (acq_rel: it observes
    // every other shard's list writes).
    if (node.shards_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FinishNode(index);
    }
  }

  // Runs on the worker that finished the config's last shard: merge the
  // shard lists deterministically, finalize the per-config result, release
  // the setup products, and cascade the children.
  void FinishNode(size_t index) {
    Node& node = nodes_[index];
    ConfigJoinResult& out = ctx_.result.per_config[index];

    TopKList merged(ctx_.options.k);
    for (const TopKList& list : node.shard_lists) {
      for (const ScoredPair& entry : list.Entries()) {
        merged.Add(entry.pair, entry.score);
      }
    }
    for (const TopKJoinStats& stats : node.shard_stats) {
      out.stats.events_popped += stats.events_popped;
      out.stats.pairs_discovered += stats.pairs_discovered;
      out.stats.pairs_scored += stats.pairs_scored;
      out.stats.pairs_pruned += stats.pairs_pruned;
      out.stats.tokens_indexed += stats.tokens_indexed;
      out.stats.overlap_increments += stats.overlap_increments;
      out.stats.truncated = out.stats.truncated || stats.truncated;
    }
    if (ctx_.choose_kernel && node.kernel == JoinKernel::kEvent) {
      node.event_cost = ctx_.event_model.Cost(
          out.stats.events_popped,
          out.stats.pairs_pruned + out.stats.pairs_scored,
          out.stats.pairs_scored);
    }
    for (const std::unique_ptr<CachingPairScorer>& scorer : node.scorers) {
      out.cache_hits += scorer->cache_hits();
      out.cache_misses += scorer->cache_misses();
    }
    out.topk = merged.SortedDescending();
    // Deferred cache writes: publish the overlap structure of the pairs
    // that survived the merge — exactly what descendants' snapshots will
    // re-score. Insert-only, first writer wins, so pairs already published
    // by an ancestor skip the ComputeShared entirely.
    if (ctx_.overlap_reuse) {
      for (const ScoredPair& entry : out.topk) {
        ctx_.cache.InsertWith(entry.pair, [&] {
          return OverlapCache::ComputeShared(
              ctx_.corpus.tuple_a(PairRowA(entry.pair)),
              ctx_.corpus.tuple_b(PairRowB(entry.pair)));
        });
      }
    }
    out.completed =
        !out.stats.truncated && !node.failed.load(std::memory_order_relaxed);
    out.seconds = node.watch.ElapsedSeconds();

    // Release the setup products now: the view's scratch buffer returns to
    // the corpus pool for the configs still to come.
    node.scorers.clear();
    node.view = ConfigView();
    node.seed.clear();
    node.seed.shrink_to_fit();
    node.shard_lists.clear();
    node.shard_stats.clear();

    Cascade(index);
  }

  // Every setup/finish path ends here exactly once per node, after the
  // node's (possibly empty) final list is in place in ctx_.result: submit
  // the children's setup tasks, which seed from that list.
  void Cascade(size_t index) {
    for (size_t child : nodes_[index].children) {
      pool_->Submit([this, child] { StartNode(child); });
    }
  }

  JointContext& ctx_;
  std::vector<Node> nodes_;
  size_t shard_count_ = 1;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

JointResult RunJointTopKJoins(const SsjCorpus& corpus, const ConfigTree& tree,
                              const JointOptions& options) {
  MC_CHECK_GT(tree.size(), 0u);
  Stopwatch total_watch;
  JointResult result;
  result.per_config.resize(tree.size());

  // Decide the plan (q, shard hint) on the root config with the cost-based
  // planner. It respects the run context, so a deadline also bounds this
  // warm-up phase.
  size_t q = options.q;
  ConfigView root_view = corpus.MakeConfigView(tree.nodes[0].mask);
  std::optional<PlannerProbe> root_probe;
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  if (q == 0) {
    if (options.cached_plan != nullptr) {
      // Cross-session plan cache hit: skip the sampling probes entirely.
      // The caller guarantees the plan was computed by PlanTopKJoin on an
      // identical corpus generation/config signature, so executing it is
      // bit-identical to planning fresh (the planner is deterministic).
      result.plan = *options.cached_plan;
      result.plan_from_cache = true;
    } else {
      PlannerOptions planner_options;
      planner_options.k = options.k;
      planner_options.measure = options.measure;
      planner_options.exclude = options.exclude;
      planner_options.seed = options.planner_seed;
      planner_options.max_shards =
          options.num_threads != 0 ? options.num_threads : hardware;
      planner_options.run_context = options.run_context;
      result.plan =
          PlanTopKJoin(corpus, root_view, planner_options, &root_probe);
    }
    result.planner_used = true;
    q = result.plan.q;
  }
  result.q_used = q;

  // The reuse trigger uses the average tuple length over the root config.
  const bool overlap_reuse =
      options.reuse_overlaps &&
      root_view.average_tokens() >= options.reuse_min_avg_tokens;
  result.overlap_reuse_active = overlap_reuse;

  OverlapCache cache(OverlapCache::RecommendShards(
      corpus.rows_a(), corpus.rows_b(), options.k, tree.size(),
      result.planner_used && !result.plan.truncated ? result.plan.est_scored
                                                    : 0));

  const size_t num_threads =
      options.num_threads != 0 ? options.num_threads : hardware;

  JointContext ctx(corpus, tree, options, result, q, overlap_reuse, cache,
                   num_threads);
  ctx.shards_per_config = options.shards_per_config;
  if (ctx.shards_per_config == 0 && result.planner_used &&
      !result.plan.truncated) {
    ctx.shards_per_config = result.plan.shards;
  }
  if (root_probe.has_value()) ctx.root_probe = &*root_probe;
  if (result.planner_used && !result.plan.truncated) {
    // The planner's own cost model at scale 1: at sample rate 1 the root's
    // plan cost is the cost of the root join itself, bit for bit. A sampled
    // plan's cost is an extrapolation that misjudged the root join by up to
    // 90x either way on the paper datasets, so a sampled root runs the
    // event kernel and its children price against what it measured.
    const CorpusPlannerStats& stats = corpus.PlannerStats();
    ctx.choose_kernel = true;
    ctx.root_event_estimate =
        result.plan.sample_rate == 1 ? result.plan.cost_per_q[q - 1] : -1.0;
    ctx.event_model = JoinCostModel{
        1.0, (stats.mean_tokens_a + stats.mean_tokens_b) / 2.0};
  }

  TwoLevelExecutor(ctx).Run();

  result.plan_decisions.reserve(tree.size());
  for (const ConfigJoinResult& config : result.per_config) {
    ConfigPlanDecision decision;
    decision.config = config.config;
    decision.q = q;
    decision.shards = config.shards_used;
    decision.seeded_from_parent = config.seeded_from_parent;
    decision.kernel = config.kernel;
    result.plan_decisions.push_back(decision);
  }

  for (const ConfigJoinResult& config : result.per_config) {
    if (!config.completed) result.truncated = true;
  }
  // A corpus cut short mid-build (deadline/fault during tokenization) makes
  // every per-config list best-so-far, not exact.
  if (corpus.truncated()) result.truncated = true;
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace mc
