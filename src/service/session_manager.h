#ifndef MATCHCATCHER_SERVICE_SESSION_MANAGER_H_
#define MATCHCATCHER_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blocking/candidate_set.h"
#include "core/match_catcher.h"
#include "service/retry_policy.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "util/memory_budget.h"
#include "util/run_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mc {

/// Hard resource bounds of a SessionManager. Everything is enforced at
/// admission or by construction (shared budget threaded into the builders);
/// nothing is advisory.
struct ServiceLimits {
  /// Sessions executing concurrently (the worker pool size, unless
  /// `num_worker_threads` overrides it).
  size_t max_concurrent_sessions = 4;
  /// Sessions allowed to wait beyond the concurrent ones. Submissions past
  /// `max_concurrent_sessions + max_queued_sessions` live sessions are
  /// rejected with kResourceExhausted and a retry-after hint.
  size_t max_queued_sessions = 16;
  /// Ceiling for the shared MemoryBudget charged by every plane/corpus
  /// build (0 = unlimited). A build that would cross it degrades to a
  /// truncated result; the watchdog additionally evicts idle shared planes
  /// when usage passes ~90% of this.
  size_t memory_limit_bytes = 0;
  /// Per-session cost ceiling, in estimated row-config units
  /// ((rows_a + rows_b) x estimated config count). A request estimated
  /// above this can never be admitted (kInvalidArgument — retrying cannot
  /// help). 0 = unlimited.
  uint64_t max_session_cost = 0;
  /// Deadline applied to sessions that do not carry their own (-1 = none).
  int64_t default_deadline_millis = -1;
  /// Watchdog sweep period: past-deadline sessions are force-cancelled and
  /// idle planes evicted under memory pressure at this cadence.
  int64_t watchdog_period_millis = 20;
  /// Worker pool size override; 0 = max_concurrent_sessions.
  size_t num_worker_threads = 0;
  /// Directory for session checkpoints ("" = checkpointing off). Completed
  /// sessions save their top-k lists as `session-<id>.mc`;
  /// RestoreFromCheckpoints() reloads them after a restart.
  std::string checkpoint_dir;
  /// Retry schedule for checkpoint IO and session (re)builds.
  RetryPolicy retry;
  /// Seed for the retry jitter streams (each session forks its own).
  uint64_t seed = 42;
  /// Cache joint execution plans across sessions on the same pair, keyed by
  /// (plane generation, plan-affecting option signature). A hit skips the
  /// planner's sampling probes entirely; output stays bit-identical because
  /// the planner is deterministic for a fixed (seed, generation) — serving
  /// the memoized plan is indistinguishable from re-running it. Off =
  /// every session plans fresh (`mcserve --no-plan-cache` ablation).
  bool enable_plan_cache = true;
};

/// Session lifecycle (docs/robustness.md has the transition diagram):
/// kQueued → kBuilding → {kComplete, kTruncated, kFailed, kCancelled}.
/// The last four are terminal; every admitted session reaches exactly one.
enum class SessionState {
  kQueued,     // Admitted, waiting for a worker.
  kBuilding,   // A worker is running plane/corpus build + joint phase.
  kComplete,   // Full top-k lists produced.
  kTruncated,  // Deadline/cancel/budget cut it short; lists are best-so-far.
  kFailed,     // Typed error (injected fault past retries, bad input, ...).
  kCancelled,  // Cancelled before producing any result.
};

const char* SessionStateName(SessionState state);
bool IsTerminalState(SessionState state);

/// One debugging-session request against a registered table pair.
struct SessionRequest {
  /// Key from RegisterTablePair.
  std::string pair_key;
  /// Base options. `run_context`, `memory_budget`, and the corpus-sharing
  /// fields are owned by the manager and overwritten; everything else
  /// passes through.
  MatchCatcherOptions options;
  /// Session deadline; -1 = ServiceLimits::default_deadline_millis.
  int64_t deadline_millis = -1;
};

/// Terminal record of a session, returned by Wait()/WaitFor().
struct SessionOutcome {
  uint64_t id = 0;
  SessionState state = SessionState::kQueued;
  /// Typed error for kFailed / cancellation cause for kCancelled; OK
  /// otherwise.
  Status status;
  /// Outcome of the post-completion checkpoint save (OK when checkpointing
  /// is off). A failed save never fails the session — the result exists.
  Status checkpoint_status;
  /// Per-config top-k lists (empty for kFailed/kCancelled).
  std::vector<std::vector<ScoredPair>> lists;
  bool truncated = false;
  /// Joint phase ran over the pair's cached corpus (plane-sharing hit).
  bool used_shared_corpus = false;
  /// Reloaded from a checkpoint by RestoreFromCheckpoints(), not computed.
  bool restored = false;
  /// Generation of the pair's shared planes this session ran over (0 when
  /// the pair vanished or the session never reached the build). A delta
  /// committed mid-session bumps the pair's generation, but the session
  /// keeps the one it pinned here — its table/corpus references stay valid.
  uint64_t plane_generation = 0;
  double admission_wait_seconds = 0.0;
  double total_seconds = 0.0;
  /// The cost-based plan of the joint phase, when the planner ran
  /// (JointOptions::q == 0). The planner's
  /// corpus statistics live on the shared corpus and re-sample
  /// automatically after ApplyTableDelta (the patched corpus carries a new
  /// generation; plan.stats_generation records which one the plan used).
  JoinPlan plan;
  bool planner_used = false;
  /// The joint phase executed a plan served from the pair's cross-session
  /// plan cache instead of running the sampling probes (bit-identical
  /// lists either way; this only records where the plan came from).
  bool plan_cache_hit = false;
  /// Per-config resolved plan decisions of the joint phase, in config-tree
  /// node order (`tools/mcserve --explain-plans` prints these).
  std::vector<ConfigPlanDecision> plan_decisions;
};

/// Aggregate counters (stats() returns a consistent snapshot).
struct ServiceStats {
  size_t submitted = 0;
  size_t admitted = 0;
  size_t rejected = 0;  // Admission rejections (queue full, cost, fault).
  size_t completed = 0;
  size_t truncated = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  size_t watchdog_cancelled = 0;  // Force-cancelled past their deadline.
  size_t plane_cache_hits = 0;    // Sessions that found the plane attached.
  size_t plane_cache_misses = 0;  // Sessions that had to build it.
  size_t corpus_cache_hits = 0;
  size_t corpus_builds = 0;
  size_t planes_evicted = 0;
  size_t sessions_restored = 0;
  size_t restore_failures = 0;  // Corrupt/unreadable checkpoints skipped.
  size_t deltas_applied = 0;    // ApplyTableDelta commits (generation bumps).
  size_t delta_failures = 0;    // Failed deltas; prior generation kept.
  size_t planes_patched = 0;    // Planes updated via TokenizedTable::ApplyDelta.
  size_t corpora_patched = 0;   // Corpora updated via SsjCorpus::ApplyDelta.
  size_t lists_repaired = 0;    // Config lists repaired by incremental merge.
  size_t lists_rejoined = 0;    // Config lists that fell back to a full join.
  size_t superseded_planes_evicted = 0;  // Subset of planes_evicted that
                                         // were superseded generations.
  size_t memory_used_bytes = 0;
  size_t memory_peak_bytes = 0;
  size_t memory_rejected_charges = 0;
  size_t memory_release_violations = 0;  // Over-releases clamped at zero.
  size_t plans_computed = 0;  // Joint phases that ran the cost planner.
  size_t plan_cache_hits = 0;    // Sessions served a memoized joint plan.
  size_t plan_cache_misses = 0;  // Planner-eligible sessions that planned
                                 // fresh (cold pair, new generation, new
                                 // option signature, or injected fault).
  size_t plans_evicted = 0;  // Cached plans reclaimed by LRU plane eviction
                             // (delta invalidations are not counted here).
  size_t hybrid_plans = 0;    // Plans that enabled the hybrid prefilter.
  size_t hybrid_restarts = 0;  // Prefilter phase-1 lists that fell short of
                               // tau and re-ran without the bound (output
                               // still bit-identical; a restart just means
                               // the sampled threshold overshot).
};

/// Long-lived multiplexer of concurrent DebugSessions over shared immutable
/// planes. The survival contract (docs/robustness.md): any number of
/// concurrent submissions under faults, cancellations, deadlines, and
/// memory pressure, and every admitted session still reaches exactly one
/// terminal state with either valid lists (complete or truncated) or a
/// typed error — never a hang, leak, or crash.
///
///   - Admission control: a bounded queue plus per-session cost estimates;
///     over-capacity submissions get kResourceExhausted carrying a typed
///     retry-after payload (Status::retry_after_millis()) derived from the
///     observed session rate.
///   - Budget enforcement: each session runs under a RunContext child of
///     the manager root (session deadline tightens, shutdown cancels all),
///     and all plane/corpus arenas charge one shared MemoryBudget.
///   - Plane sharing: the first session on a registered pair builds the
///     TokenizedTable (single-flight, under the pair's lock) and attaches
///     it to the stored tables; later sessions' table copies inherit it, so
///     N sessions cost ~1 tokenization. The first finished corpus build is
///     published the same way. Shared results are bit-identical to isolated
///     builds (the builders are thread-count deterministic).
///   - Incremental deltas: ApplyTableDelta() patches the stored tables, the
///     shared plane, the cached corpus, and the cached per-config top-k
///     lists in place of a rebuild, then bumps the pair's generation.
///     In-flight sessions keep the generation they pinned at snapshot time;
///     superseded generations park on a reclaim list the evictor drains
///     first. A failed delta leaves the prior generation intact and visible.
///   - Retry/backoff: session builds and checkpoint IO run under the
///     configured RetryPolicy; injected faults ("service/build",
///     "session_io/*") exercise the real paths.
///   - Degradation + recovery: a watchdog force-cancels past-deadline
///     sessions and evicts idle shared planes under memory pressure;
///     RestoreFromCheckpoints() reloads completed sessions after a restart,
///     skipping corrupt files with a typed count instead of crashing.
///
/// Thread-safe. Shutdown() (also run by the destructor) cancels the root
/// context, drains the workers, and leaves every session terminal.
class SessionManager {
 public:
  explicit SessionManager(const ServiceLimits& limits);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a table pair under `key`. Copies the inputs; the shared
  /// plane is built lazily by the first session on the pair. Re-registering
  /// a key replaces the pair (and drops its cached plane/corpus).
  Status RegisterTablePair(const std::string& key, const Table& table_a,
                           const Table& table_b,
                           const CandidateSet& blocker_output);

  /// Admission control. Returns the session id, or a typed rejection:
  /// kNotFound (unknown pair), kInvalidArgument (cost can never fit),
  /// kResourceExhausted with a typed retry-after hint — read it with
  /// status.retry_after_millis() — when the queue is full, kUnavailable
  /// (shutting down, or the "service/admit" fault fired).
  Result<uint64_t> Submit(const SessionRequest& request);

  /// Applies a batch of row edits to one side of a registered pair and
  /// patches every cached artifact incrementally: the stored tables, the
  /// attached TokenizedTable (TokenizedTable::ApplyDelta), the cached
  /// corpus (SsjCorpus::ApplyDelta), and the cached per-config top-k lists
  /// (RepairJointLists) — all staged on copies and published atomically as
  /// a new plane generation. Patched artifacts are content-identical to
  /// from-scratch rebuilds of the mutated tables (the delta-equivalence
  /// suite holds this bit for bit). When an artifact's dead-token fraction
  /// passes the compaction threshold (0.5), it is rebuilt instead of
  /// patched — same contract, fresh dictionary.
  ///
  /// In-flight sessions are unaffected: they hold references to the
  /// generation they snapshotted. On any failure — validation, the
  /// "service/delta" fault, a budget refusal mid-patch — the prior
  /// generation stays intact and visible, and nothing is published.
  /// Typed errors: kNotFound (unknown key), kInvalidArgument (empty or
  /// malformed delta), kUnavailable (fault/patch failure, shutting down),
  /// kResourceExhausted (compaction rebuild truncated by the budget).
  Status ApplyTableDelta(const std::string& key, const TableDelta& delta);

  /// Current plane generation of a registered pair (starts at 1; each
  /// committed delta increments it). kNotFound for unknown keys.
  Result<uint64_t> PairGeneration(const std::string& key) const;

  /// The pair's cached per-config top-k lists — populated by the first
  /// non-truncated session that ran with a deterministic q (joint.q >= 1),
  /// then repaired in place by every committed delta. kNotFound when the
  /// pair is unknown or nothing is cached (no qualifying session yet, or
  /// the cache was evicted).
  Result<std::vector<std::vector<ScoredPair>>> CachedTopKLists(
      const std::string& key) const;

  /// Blocks until the session is terminal; returns its outcome.
  Result<SessionOutcome> Wait(uint64_t session_id);

  /// Wait() with a timeout; kDeadlineExceeded when the session is still
  /// live after `timeout_millis` (the session itself is unaffected).
  Result<SessionOutcome> WaitFor(uint64_t session_id, int64_t timeout_millis);

  /// Requests cooperative cancellation of one session. A queued session
  /// ends kCancelled without running; a building one stops at its next
  /// poll and ends kTruncated (best-so-far lists) or kCancelled.
  Status CancelSession(uint64_t session_id);

  /// Current state of a session (kNotFound for unknown ids).
  Result<SessionState> StateOf(uint64_t session_id);

  /// Detaches cached shared planes/corpora from up to `max_evictions`
  /// registered pairs, least-recently-used first (all of them when 0).
  /// Memory is reclaimed once in-flight sessions drop their references.
  /// The watchdog calls this automatically under memory pressure; exposed
  /// for tests and operators.
  size_t EvictSharedPlanes(size_t max_evictions = 0);

  /// Scans ServiceLimits::checkpoint_dir for `session-<id>.mc` files and
  /// reloads each as a terminal kComplete session (outcome.restored set).
  /// CRC-corrupt or unreadable files are skipped and counted in
  /// stats().restore_failures — a typed per-file kIoError, never a crash.
  /// Returns the number restored.
  Result<size_t> RestoreFromCheckpoints();

  /// Consistent snapshot of the aggregate counters.
  ServiceStats stats() const;

  /// Number of sessions not yet terminal.
  size_t live_sessions() const;

  /// Cancels everything (root context), drains the workers, stops the
  /// watchdog. Every session is terminal afterwards. Idempotent; further
  /// Submits return kUnavailable.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  /// A plane generation displaced by a committed delta. New sessions can
  /// never see it again, so the evictor reclaims these before touching any
  /// live plane; in-flight sessions pinned to it hold their own references
  /// and are unaffected by the reclaim.
  struct SupersededPlane {
    uint64_t generation = 0;
    std::shared_ptr<const TokenizedTable> plane;
    std::shared_ptr<const SsjCorpus> corpus;
  };

  struct PairEntry {
    /// Immutable and shared: sessions snapshot these pointers under
    /// pair_mutex instead of copying the tables (zero-copy session start).
    /// Every mutation — the one-time plane attach, a committed delta, a
    /// plane eviction — stages new Table objects and republishes the
    /// pointers, so in-flight sessions keep reading the generation they
    /// pinned. Guarded by pair_mutex (reads and republishes alike);
    /// admission-time cost estimation reads total_rows below instead so it
    /// never touches these under the manager mutex.
    std::shared_ptr<const Table> table_a;
    std::shared_ptr<const Table> table_b;
    std::shared_ptr<const CandidateSet> blocker_output;
    /// Sum of both tables' row counts, set at registration and refreshed on
    /// each committed delta. EstimateCost reads it at admission time under
    /// the manager mutex, where dereferencing the pair_mutex-guarded table
    /// pointers would race with a concurrent republish.
    std::atomic<uint64_t> total_rows{0};
    /// Published by the first session's corpus_sink; later sessions join
    /// over it directly.
    std::shared_ptr<const SsjCorpus> corpus;
    std::vector<size_t> corpus_columns;
    /// Cached repairable top-k state: published by the first qualifying
    /// session's joint_sink, repaired in place by every committed delta.
    /// Guarded by pair_mutex, like corpus.
    std::shared_ptr<const JointListsSnapshot> joint_lists;
    /// One memoized session plan: the joint execution plan plus the config
    /// pick (promising attributes + tree) it was planned over. The two
    /// halves publish independently (config before the joint phase, plan
    /// after it), so a session that dies between them leaves a config-only
    /// entry — a later session reuses the pick and re-plans.
    struct CachedSessionPlan {
      std::shared_ptr<const JoinPlan> plan;
      std::shared_ptr<const CachedConfigPick> config;
    };
    /// Cross-session plan cache: memoized session plans published by the
    /// first planner-eligible session per option signature, served to every
    /// later session with the same signature on the same generation.
    /// Invalidated wholesale by each committed delta (the plan's sampled
    /// corpus statistics and the pick's e-scores die with the generation)
    /// and reclaimed by LRU plane eviction. Guarded by pair_mutex, like
    /// corpus.
    std::unordered_map<uint64_t, CachedSessionPlan> plan_cache;
    /// Monotone plane generation; ApplyTableDelta bumps it on commit.
    /// Guarded by pair_mutex.
    uint64_t generation = 1;
    /// Prior generations awaiting reclaim, oldest first. Guarded by
    /// pair_mutex.
    std::vector<SupersededPlane> superseded;
    uint64_t last_used_tick = 0;
    /// Sessions currently pinned to this entry (claimed but not yet
    /// terminal). Guarded by mutex_ — the evictor reads it there to skip
    /// busy pairs.
    size_t active_sessions = 0;
    /// Serializes the single-flight plane build, table snapshotting, and
    /// delta application for this pair; never held together with mutex_.
    std::mutex pair_mutex;
  };

  struct SessionRecord {
    SessionState state = SessionState::kQueued;
    std::string pair_key;
    SessionRequest request;
    RunContext context;  // Child of root_context_ (+ session deadline).
    Clock::time_point submit_time;
    Clock::time_point deadline_time;  // Meaningful iff has_deadline.
    bool has_deadline = false;
    bool watchdog_cancelled = false;
    /// Pin on the pair entry while the session is live; FinishSession drops
    /// it and decrements active_sessions.
    std::shared_ptr<PairEntry> entry;
    SessionOutcome outcome;
  };

  uint64_t EstimateCost(const PairEntry& entry,
                        const MatchCatcherOptions& options) const;
  void RunSession(uint64_t id);
  void FinishSession(uint64_t id, SessionOutcome outcome);
  void WatchdogLoop();
  size_t EvictSharedPlanesLocked(size_t max_evictions);

  const ServiceLimits limits_;
  /// Declared before everything that charges it: reservations held by
  /// cached planes/corpora and in-flight sessions must release into a live
  /// budget.
  MemoryBudget budget_;

  mutable std::mutex mutex_;
  std::condition_variable terminal_cv_;
  // shared_ptr: in-flight sessions hold their own reference, so replacing
  // or evicting a pair never pulls the entry out from under them.
  std::unordered_map<std::string, std::shared_ptr<PairEntry>> pairs_;
  std::unordered_map<uint64_t, SessionRecord> sessions_;
  uint64_t next_id_ = 1;
  uint64_t lru_tick_ = 0;
  size_t live_count_ = 0;  // Sessions in a non-terminal state.
  double avg_session_seconds_ = 0.0;  // EMA; feeds the retry-after hint.
  Rng retry_seeds_;  // Forked per retry site, under mutex_.
  ServiceStats stats_;
  bool shutting_down_ = false;

  /// Root of every session context: Shutdown() cancels it and the whole
  /// fleet stops at its next poll.
  RunContext root_context_;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  /// Declared last: destroyed (drained) before any state its tasks touch.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mc

#endif  // MATCHCATCHER_SERVICE_SESSION_MANAGER_H_
