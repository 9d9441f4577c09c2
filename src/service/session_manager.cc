#include "service/session_manager.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "core/session_io.h"
#include "table/tokenized_table.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_name.h"

namespace mc {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string CheckpointPath(const std::string& dir, uint64_t id) {
  return dir + "/session-" + std::to_string(id) + ".mc";
}

// Once this fraction of a plane's or corpus's dictionary is dead (df == 0
// through retired delta tokens), patching stops paying: compact by
// rebuilding from scratch instead. Content equality with a rebuild holds on
// either path.
constexpr double kDeadTokenCompactionThreshold = 0.5;

uint64_t MixFnv(uint64_t hash, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t MixFnvDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return MixFnv(hash, bits);
}

// FNV-1a over the plan-affecting session options. Two sessions with equal
// signatures on the same plane generation compute byte-identical plans
// (PlanTopKJoin is deterministic for a fixed seed on a fixed corpus
// generation), so a memoized plan can stand in for a fresh run.
uint64_t PlanCacheSignature(const MatchCatcherOptions& options) {
  const JointOptions& joint = options.joint;
  uint64_t hash = 1469598103934665603ull;
  hash = MixFnv(hash, joint.k);
  hash = MixFnv(hash, static_cast<uint64_t>(joint.measure));
  hash = MixFnv(hash, joint.planner_seed != 0 ? joint.planner_seed
                                              : PlannerSeedFromEnv());
  hash = MixFnv(hash, joint.num_threads);
  hash = MixFnv(hash, joint.shards_per_config);
  // Config generation picks the attributes, and with them the root view the
  // plan prices — its knobs (and type inference) are part of what makes two
  // plans interchangeable.
  const ConfigGeneratorOptions& config = options.config;
  hash = MixFnvDouble(hash, config.categorical_value_jaccard_threshold);
  hash = MixFnvDouble(hash, config.delta);
  hash = MixFnv(hash, config.handle_long_attributes ? 1 : 0);
  hash = MixFnv(hash, config.max_attributes);
  hash = MixFnv(hash, options.infer_types ? 1 : 0);
  return hash;
}

}  // namespace

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "Queued";
    case SessionState::kBuilding:
      return "Building";
    case SessionState::kComplete:
      return "Complete";
    case SessionState::kTruncated:
      return "Truncated";
    case SessionState::kFailed:
      return "Failed";
    case SessionState::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

bool IsTerminalState(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
    case SessionState::kBuilding:
      return false;
    case SessionState::kComplete:
    case SessionState::kTruncated:
    case SessionState::kFailed:
    case SessionState::kCancelled:
      return true;
  }
  return true;
}

SessionManager::SessionManager(const ServiceLimits& limits)
    : limits_(limits),
      budget_(limits.memory_limit_bytes),
      retry_seeds_(limits.seed),
      root_context_(RunContext::Cancellable()) {
  MC_CHECK_GE(limits_.max_concurrent_sessions, 1u);
  if (!limits_.checkpoint_dir.empty()) {
    // Best effort: a missing directory would otherwise fail every save as
    // a (retried) kIoError. An uncreatable one still degrades that way —
    // checkpoint failures never fail sessions.
    std::error_code ignored;
    std::filesystem::create_directories(limits_.checkpoint_dir, ignored);
  }
  const size_t workers = limits_.num_worker_threads != 0
                             ? limits_.num_worker_threads
                             : limits_.max_concurrent_sessions;
  pool_ = std::make_unique<ThreadPool>(workers, "mcserve");
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

SessionManager::~SessionManager() { Shutdown(); }

void SessionManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  // Every session context is a child of the root: one cancel stops the
  // whole fleet at its next poll. Builds degrade to truncated planes and
  // best-so-far joins — the drain below is bounded by poll latency, not by
  // remaining work.
  root_context_.Cancel();
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Drains queued and running sessions; each ends terminal (RunSession
  // finishes on every path, including the already-cancelled fast path).
  pool_.reset();
}

Status SessionManager::RegisterTablePair(const std::string& key,
                                         const Table& table_a,
                                         const Table& table_b,
                                         const CandidateSet& blocker_output) {
  if (key.empty()) {
    return Status::InvalidArgument("table pair key must be non-empty");
  }
  auto entry = std::make_shared<PairEntry>();
  entry->table_a = std::make_shared<const Table>(table_a);
  entry->table_b = std::make_shared<const Table>(table_b);
  entry->blocker_output = std::make_shared<const CandidateSet>(blocker_output);
  entry->total_rows.store(static_cast<uint64_t>(table_a.num_rows()) +
                              static_cast<uint64_t>(table_b.num_rows()),
                          std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutting_down_) {
    return Status::Unavailable("session manager is shutting down");
  }
  pairs_[key] = std::move(entry);  // Replaces (and drops the old cache).
  return Status::Ok();
}

uint64_t SessionManager::EstimateCost(
    const PairEntry& entry, const MatchCatcherOptions& options) const {
  // total_rows, not the tables themselves: this runs under the manager
  // mutex while a delta commit may republish the pair_mutex-guarded table
  // pointers. Either generation's count is an acceptable estimate.
  const uint64_t rows = entry.total_rows.load(std::memory_order_relaxed);
  // The config tree of §3.2 holds at most a*(a+1)/2 + 1 nodes for a
  // promising attributes; max_attributes caps a before any data is seen,
  // which makes this a pre-admission upper bound.
  const uint64_t attrs =
      std::min<uint64_t>(options.config.max_attributes, 32u);
  const uint64_t configs = attrs * (attrs + 1) / 2 + 1;
  return rows * configs;
}

Result<uint64_t> SessionManager::Submit(const SessionRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.submitted;
  if (shutting_down_) {
    ++stats_.rejected;
    return Status::Unavailable("session manager is shutting down");
  }
  if (MC_FAULT_POINT("service/admit") != FaultKind::kNone) {
    ++stats_.rejected;
    return Status::Unavailable("injected fault: service/admit");
  }
  auto it = pairs_.find(request.pair_key);
  if (it == pairs_.end()) {
    ++stats_.rejected;
    return Status::NotFound("unknown table pair: " + request.pair_key);
  }
  const uint64_t cost = EstimateCost(*it->second, request.options);
  if (limits_.max_session_cost != 0 && cost > limits_.max_session_cost) {
    // Permanently over the ceiling — a retry cannot change the estimate, so
    // this is kInvalidArgument, not kResourceExhausted.
    ++stats_.rejected;
    return Status::InvalidArgument(
        "estimated session cost " + std::to_string(cost) +
        " exceeds max_session_cost " +
        std::to_string(limits_.max_session_cost));
  }
  const size_t capacity =
      limits_.max_concurrent_sessions + limits_.max_queued_sessions;
  if (live_count_ >= capacity) {
    ++stats_.rejected;
    // Retry-after: the backlog beyond one free slot drains at
    // max_concurrent sessions per observed average duration.
    const double avg =
        avg_session_seconds_ > 0.0 ? avg_session_seconds_ : 0.05;
    const uint64_t backlog = live_count_ - capacity + 1;
    const int64_t hint_millis = std::max<int64_t>(
        1, static_cast<int64_t>(
               1000.0 * avg * static_cast<double>(backlog) /
               static_cast<double>(limits_.max_concurrent_sessions)));
    // The hint travels as a typed Status payload; the message repeats it
    // for humans reading logs.
    return Status::ResourceExhausted(
               "admission queue full (" + std::to_string(live_count_) +
               " live sessions, capacity " + std::to_string(capacity) +
               "); retry-after-ms=" + std::to_string(hint_millis))
        .WithRetryAfter(hint_millis);
  }

  const uint64_t id = next_id_++;
  SessionRecord record;
  record.pair_key = request.pair_key;
  record.request = request;
  const int64_t deadline_millis = request.deadline_millis >= 0
                                      ? request.deadline_millis
                                      : limits_.default_deadline_millis;
  record.context = RunContext::WithParent(root_context_, deadline_millis);
  record.submit_time = Clock::now();
  if (deadline_millis >= 0) {
    record.has_deadline = true;
    record.deadline_time =
        record.submit_time + std::chrono::milliseconds(deadline_millis);
  }
  record.outcome.id = id;
  sessions_.emplace(id, std::move(record));
  ++live_count_;
  ++stats_.admitted;
  pool_->Submit([this, id] { RunSession(id); });
  return id;
}

Status SessionManager::ApplyTableDelta(const std::string& key,
                                       const TableDelta& delta) {
  std::shared_ptr<PairEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::Unavailable("session manager is shutting down");
    }
    auto it = pairs_.find(key);
    if (it == pairs_.end()) {
      return Status::NotFound("unknown table pair: " + key);
    }
    entry = it->second;
  }

  bool patched_plane = false;
  bool patched_corpus = false;
  const Status status = [&]() -> Status {
    if (delta.empty()) {
      return Status::InvalidArgument("empty delta for pair " + key);
    }
    if (delta.side > 1) {
      return Status::InvalidArgument("delta side " +
                                     std::to_string(delta.side) +
                                     " is neither 0 (A) nor 1 (B) for pair " +
                                     key);
    }
    if (MC_FAULT_POINT("service/delta") != FaultKind::kNone) {
      return Status::Unavailable("injected fault: service/delta");
    }
    std::lock_guard<std::mutex> pair_lock(entry->pair_mutex);

    // Every artifact is staged on copies; the entry flips to the new
    // generation only after the whole batch succeeded, so any failure
    // below leaves the prior generation intact and visible. Table copies
    // share cells: only the side the delta edits clones its own.
    Table staged_a = *entry->table_a;
    Table staged_b = *entry->table_b;
    Table& target = delta.side == 0 ? staged_a : staged_b;
    const size_t base_rows = target.num_rows();
    MC_RETURN_IF_ERROR(ApplyDeltaToTable(target, delta));
    MC_ASSIGN_OR_RETURN(RowsDelta rows, MakeRowsDelta(delta, base_rows));

    // The row edits already detached the stale plane from the mutated copy;
    // drop it from the untouched side too, then patch — or, past the
    // dead-token compaction threshold, rebuild — and re-attach.
    const std::shared_ptr<const TokenizedTable> old_plane =
        entry->table_a->text_plane_ref();
    staged_a.DetachTextPlane();
    staged_b.DetachTextPlane();
    std::shared_ptr<const TokenizedTable> new_plane;
    if (old_plane != nullptr && !old_plane->truncated()) {
      TextPlaneBuildOptions plane_options;
      plane_options.run_context = root_context_;
      plane_options.memory_budget = &budget_;
      if (old_plane->dead_token_fraction() > kDeadTokenCompactionThreshold) {
        new_plane = TokenizedTable::Build(staged_a, staged_b, plane_options);
        if (new_plane == nullptr || new_plane->truncated()) {
          return Status::ResourceExhausted(
              "plane compaction rebuild truncated for pair " + key);
        }
      } else {
        new_plane = TokenizedTable::ApplyDelta(*old_plane, staged_a,
                                               staged_b, rows, plane_options);
        if (new_plane == nullptr) {
          return Status::Unavailable("plane patch failed for pair " + key);
        }
        patched_plane = true;
      }
      staged_a.AttachTextPlane(new_plane, 0);
      staged_b.AttachTextPlane(new_plane, 1);
    }

    std::shared_ptr<const SsjCorpus> new_corpus;
    if (entry->corpus != nullptr && !entry->corpus->truncated()) {
      CorpusBuildOptions corpus_options;
      corpus_options.run_context = root_context_;
      corpus_options.memory_budget = &budget_;
      if (entry->corpus->dead_token_fraction() >
          kDeadTokenCompactionThreshold) {
        auto rebuilt = std::make_shared<SsjCorpus>(SsjCorpus::Build(
            staged_a, staged_b, entry->corpus_columns, corpus_options));
        if (rebuilt->truncated()) {
          return Status::ResourceExhausted(
              "corpus compaction rebuild truncated for pair " + key);
        }
        new_corpus = std::move(rebuilt);
      } else {
        std::optional<SsjCorpus> patched = SsjCorpus::ApplyDelta(
            *entry->corpus, staged_a, staged_b, entry->corpus_columns, rows,
            corpus_options);
        if (!patched.has_value()) {
          return Status::Unavailable("corpus patch failed for pair " + key);
        }
        new_corpus = std::make_shared<SsjCorpus>(*std::move(patched));
        patched_corpus = true;
      }
    }

    // Publish. The entry drops its references to the displaced generation;
    // in-flight sessions pinned to it hold their own, so it is freed when
    // the last of them ends.
    entry->table_a = std::make_shared<const Table>(std::move(staged_a));
    entry->table_b = std::make_shared<const Table>(std::move(staged_b));
    entry->total_rows.store(
        static_cast<uint64_t>(entry->table_a->num_rows()) +
            static_cast<uint64_t>(entry->table_b->num_rows()),
        std::memory_order_relaxed);
    entry->corpus = std::move(new_corpus);
    // Cached plans priced the displaced generation's sampled corpus
    // statistics; none survives the bump. The next planner-eligible session
    // re-plans against the patched corpus and repopulates the cache.
    entry->plan_cache.clear();
    ++entry->generation;
    return Status::Ok();
  }();

  std::lock_guard<std::mutex> lock(mutex_);
  if (!status.ok()) {
    ++stats_.delta_failures;
    return status;
  }
  ++stats_.deltas_applied;
  if (patched_plane) ++stats_.planes_patched;
  if (patched_corpus) ++stats_.corpora_patched;
  return status;
}

Result<uint64_t> SessionManager::PairGeneration(const std::string& key) const {
  std::shared_ptr<PairEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pairs_.find(key);
    if (it == pairs_.end()) {
      return Status::NotFound("unknown table pair: " + key);
    }
    entry = it->second;
  }
  std::lock_guard<std::mutex> pair_lock(entry->pair_mutex);
  return entry->generation;
}

void SessionManager::RunSession(uint64_t id) {
  // Everything the build holds — the DebugSession with any private corpus,
  // the table, corpus and blocker-output references, the options holding
  // the shared corpus — dies when BuildSession returns, before
  // FinishSession wakes a waiter: memory_used_bytes read right after Wait
  // holds none of this session's charges.
  std::optional<SessionOutcome> outcome = BuildSession(id);
  if (outcome.has_value()) FinishSession(id, *std::move(outcome));
}

std::optional<SessionOutcome> SessionManager::BuildSession(uint64_t id) {
  // Claim the record and snapshot what the build needs.
  SessionRequest request;
  RunContext context;
  std::shared_ptr<PairEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end() || IsTerminalState(it->second.state)) {
      return std::nullopt;
    }
    SessionRecord& record = it->second;
    record.state = SessionState::kBuilding;
    record.outcome.admission_wait_seconds = SecondsSince(record.submit_time);
    request = record.request;
    context = record.context;
    auto pair_it = pairs_.find(record.pair_key);
    if (pair_it != pairs_.end()) {
      entry = pair_it->second;
      entry->last_used_tick = ++lru_tick_;
      // Pin the pair while this session is live: the evictor leaves pinned
      // pairs' live planes alone, and FinishSession drops the pin.
      ++entry->active_sessions;
      record.entry = entry;
    }
  }
  if (entry == nullptr) {
    SessionOutcome outcome;
    outcome.id = id;
    outcome.state = SessionState::kFailed;
    outcome.status =
        Status::NotFound("table pair vanished: " + request.pair_key);
    return outcome;
  }
  if (context.Cancelled()) {
    // Cancelled (or shut down, or past deadline) while queued: end without
    // paying for a build.
    SessionOutcome outcome;
    outcome.id = id;
    outcome.state = SessionState::kCancelled;
    outcome.status =
        Status::DeadlineExceeded("session cancelled while queued");
    return outcome;
  }

  // Pair setup, single-flight under the pair's lock: the first session on
  // the pair tokenizes and attaches the shared plane; everyone snapshots
  // shared-table references (which carry the attached plane) and the
  // cached corpus — zero table copies per session.
  std::shared_ptr<const Table> table_a;
  std::shared_ptr<const Table> table_b;
  std::shared_ptr<const CandidateSet> blocker_output;
  std::shared_ptr<const SsjCorpus> shared_corpus;
  std::vector<size_t> shared_corpus_columns;
  bool built_plane = false;
  uint64_t plane_generation = 0;
  std::shared_ptr<const JoinPlan> cached_plan;
  std::shared_ptr<const CachedConfigPick> cached_config;
  uint64_t plan_signature = 0;
  const bool plan_cache_eligible = request.options.joint.q == 0;
  {
    std::lock_guard<std::mutex> pair_lock(entry->pair_mutex);
    if (AttachedTextPlane(*entry->table_a) == nullptr && !context.Cancelled()) {
      // Built under the root context, not the session's: the plane outlives
      // this session, so one session's deadline must not truncate it. A
      // truncated build (shutdown mid-flight, budget refusal) is simply not
      // attached; this and later sessions fall back to the string path.
      // Attached to copies (which share the cells) and republished: the
      // entry's Table objects are shared with live sessions and must never
      // mutate in place.
      TextPlaneBuildOptions plane_options;
      plane_options.num_threads = request.options.joint.num_threads;
      plane_options.run_context = root_context_;
      plane_options.memory_budget = &budget_;
      Table staged_a = *entry->table_a;
      Table staged_b = *entry->table_b;
      TokenizedTable::BuildAndAttach(staged_a, staged_b, plane_options);
      entry->table_a = std::make_shared<const Table>(std::move(staged_a));
      entry->table_b = std::make_shared<const Table>(std::move(staged_b));
      built_plane = true;
    }
    // infer_types sessions get these too: Create rewrites the schema on
    // its own copies, which share the cells.
    table_a = entry->table_a;
    table_b = entry->table_b;
    blocker_output = entry->blocker_output;
    shared_corpus = entry->corpus;
    shared_corpus_columns = entry->corpus_columns;
    // The generation this session runs over. A delta committed from here
    // on supersedes it, but these snapshots stay valid — and the sinks
    // below check it so a stale session never publishes into a patched
    // entry.
    plane_generation = entry->generation;
    // Plan-cache lookup under the same single-flight lock that pinned the
    // generation: no delta can commit between this read and the snapshots
    // above, so a hit is guaranteed to have been planned on exactly the
    // corpus this session is about to join over. Only planner-eligible
    // sessions participate (q == 0 under kPlanner — a fixed q has no plan
    // to memoize).
    if (plan_cache_eligible) {
      plan_signature = PlanCacheSignature(request.options);
      if (MC_FAULT_POINT("service/plan_cache") != FaultKind::kNone) {
        // A torn cache entry is handled as a miss: drop it and re-plan.
        // The degradation is cost (one planner run), never output.
        entry->plan_cache.erase(plan_signature);
      } else {
        auto plan_it = entry->plan_cache.find(plan_signature);
        if (plan_it != entry->plan_cache.end()) {
          cached_plan = plan_it->second.plan;
          cached_config = plan_it->second.config;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (built_plane) {
      ++stats_.plane_cache_misses;
    } else {
      ++stats_.plane_cache_hits;
    }
    if (shared_corpus != nullptr) ++stats_.corpus_cache_hits;
    if (plan_cache_eligible) {
      if (cached_plan != nullptr) {
        ++stats_.plan_cache_hits;
      } else {
        ++stats_.plan_cache_misses;
      }
    }
  }

  MatchCatcherOptions options = request.options;
  options.run_context = context;
  options.memory_budget = &budget_;
  options.shared_corpus = std::move(shared_corpus);
  options.shared_corpus_columns = std::move(shared_corpus_columns);
  options.corpus_sink = [this, entry, plane_generation](
                            std::shared_ptr<const SsjCorpus> corpus,
                            const std::vector<size_t>& columns) {
    {
      std::lock_guard<std::mutex> pair_lock(entry->pair_mutex);
      // Publish first-wins, and only into the generation this session
      // snapshotted: a corpus built over pre-delta tables must not land in
      // a patched entry.
      if (entry->generation == plane_generation &&
          entry->corpus == nullptr) {
        entry->corpus = std::move(corpus);
        entry->corpus_columns = columns;
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corpus_builds;
  };
  options.cached_plan = cached_plan;
  options.cached_config = cached_config;
  if (plan_cache_eligible && cached_plan == nullptr) {
    // Mirror of corpus_sink: publish the freshly computed plan first-wins,
    // and only into the generation this session snapshotted.
    options.plan_sink = [this, entry, plane_generation,
                         plan_signature](const JoinPlan& plan) {
      std::lock_guard<std::mutex> pair_lock(entry->pair_mutex);
      if (entry->generation != plane_generation) return;  // Stale session.
      auto& slot = entry->plan_cache[plan_signature].plan;
      if (slot == nullptr) slot = std::make_shared<const JoinPlan>(plan);
    };
  }
  if (plan_cache_eligible && cached_config == nullptr) {
    // The config half of the memoized session plan, same first-wins and
    // generation guard. Published separately from the plan (selection
    // finishes before the joint phase), so a session truncated in between
    // still leaves the pick for the next session to re-plan over.
    options.config_sink = [this, entry, plane_generation,
                           plan_signature](const CachedConfigPick& pick) {
      std::lock_guard<std::mutex> pair_lock(entry->pair_mutex);
      if (entry->generation != plane_generation) return;  // Stale session.
      auto& slot = entry->plan_cache[plan_signature].config;
      if (slot == nullptr) slot = std::make_shared<const CachedConfigPick>(pick);
    };
  }
  // The build is pure until FinishSession publishes, so rebuilding after a
  // transient failure (the "service/build" fault, a budget rejection that
  // cleared) is safe — exactly the idempotent case RetryPolicy covers.
  uint64_t retry_seed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retry_seed = retry_seeds_.NextUint64();
  }
  Retrier retrier(limits_.retry, retry_seed);
  std::optional<DebugSession> session;
  const Status build_status = retrier.Run(
      [&]() -> Status {
        if (MC_FAULT_POINT("service/build") != FaultKind::kNone) {
          return Status::Unavailable("injected fault: service/build");
        }
        Result<DebugSession> result =
            DebugSession::Create(table_a, table_b, *blocker_output, options);
        if (!result.ok()) return result.status();
        session.emplace(std::move(result).value());
        return Status::Ok();
      },
      context);

  SessionOutcome outcome;
  outcome.id = id;
  outcome.plane_generation = plane_generation;
  if (!build_status.ok()) {
    outcome.status = build_status;
    // A cancel/deadline that fired before the joint phase produced anything
    // is a cancellation, not a failure; everything else is typed failure.
    outcome.state =
        (build_status.code() == StatusCode::kDeadlineExceeded ||
         context.Cancelled())
            ? SessionState::kCancelled
            : SessionState::kFailed;
    return outcome;
  }

  outcome.lists = session->TopKLists();
  outcome.truncated = session->truncated();
  outcome.used_shared_corpus = session->used_shared_corpus();
  const JointResult& joint = session->joint_result();
  outcome.planner_used = joint.planner_used;
  outcome.plan = joint.plan;
  outcome.plan_cache_hit = joint.plan_from_cache;
  outcome.plan_decisions = joint.plan_decisions;
  // A cache hit skipped the probes, so it is not a computed plan.
  if (joint.planner_used && !joint.plan_from_cache) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.plans_computed;
  }
  outcome.state = session->truncated() ? SessionState::kTruncated
                                       : SessionState::kComplete;
  if (!limits_.checkpoint_dir.empty()) {
    // Checkpoint IO under the same retry schedule; .tmp+rename makes the
    // save idempotent. A save that still fails is recorded, not fatal —
    // the session's result exists regardless.
    const std::string path = CheckpointPath(limits_.checkpoint_dir, id);
    outcome.checkpoint_status = retrier.Run(
        [&] { return SaveTopKLists(outcome.lists, path); }, context);
  }
  return outcome;
}

void SessionManager::FinishSession(uint64_t id, SessionOutcome outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || IsTerminalState(it->second.state)) return;
  SessionRecord& record = it->second;
  if (record.entry != nullptr) {
    MC_CHECK_GT(record.entry->active_sessions, 0u);
    --record.entry->active_sessions;
    record.entry.reset();
  }
  outcome.admission_wait_seconds = record.outcome.admission_wait_seconds;
  outcome.total_seconds = SecondsSince(record.submit_time);
  record.state = outcome.state;
  record.outcome = std::move(outcome);
  MC_CHECK_GT(live_count_, 0u);
  --live_count_;
  switch (record.state) {
    case SessionState::kComplete:
      ++stats_.completed;
      break;
    case SessionState::kTruncated:
      ++stats_.truncated;
      break;
    case SessionState::kFailed:
      ++stats_.failed;
      break;
    case SessionState::kCancelled:
      ++stats_.cancelled;
      break;
    default:
      break;
  }
  // EMA of session duration feeds the admission retry-after hint.
  const double seconds = record.outcome.total_seconds;
  avg_session_seconds_ = avg_session_seconds_ == 0.0
                             ? seconds
                             : 0.8 * avg_session_seconds_ + 0.2 * seconds;
  terminal_cv_.notify_all();
}

Result<SessionOutcome> SessionManager::Wait(uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session id " +
                            std::to_string(session_id));
  }
  terminal_cv_.wait(lock, [&] {
    return IsTerminalState(sessions_.at(session_id).state);
  });
  return sessions_.at(session_id).outcome;
}

Result<SessionOutcome> SessionManager::WaitFor(uint64_t session_id,
                                               int64_t timeout_millis) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session id " +
                            std::to_string(session_id));
  }
  const bool terminal = terminal_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_millis),
      [&] { return IsTerminalState(sessions_.at(session_id).state); });
  if (!terminal) {
    return Status::DeadlineExceeded(
        "session " + std::to_string(session_id) + " still " +
        SessionStateName(sessions_.at(session_id).state) + " after " +
        std::to_string(timeout_millis) + " ms");
  }
  return sessions_.at(session_id).outcome;
}

Status SessionManager::CancelSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session id " +
                            std::to_string(session_id));
  }
  it->second.context.Cancel();
  return Status::Ok();
}

Result<SessionState> SessionManager::StateOf(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session id " +
                            std::to_string(session_id));
  }
  return it->second.state;
}

size_t SessionManager::EvictSharedPlanes(size_t max_evictions) {
  std::lock_guard<std::mutex> lock(mutex_);
  return EvictSharedPlanesLocked(max_evictions);
}

size_t SessionManager::EvictSharedPlanesLocked(size_t max_evictions) {
  // LRU order over the registered pairs.
  std::vector<std::pair<uint64_t, PairEntry*>> order;
  order.reserve(pairs_.size());
  for (auto& [key, entry] : pairs_) {
    order.emplace_back(entry->last_used_tick, entry.get());
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t evicted = 0;
  // Live planes, LRU first — but only on pairs no live session is pinned
  // to, so a running session never loses the shared cache under it.
  for (auto& [tick, entry] : order) {
    if (max_evictions != 0 && evicted >= max_evictions) break;
    if (entry->active_sessions != 0) continue;
    // try_lock: a pair whose plane is being built (or snapshotted, or
    // patched) right now is busy, not idle — skip it rather than invert
    // the mutex_ → pair_mutex order and deadlock.
    std::unique_lock<std::mutex> pair_lock(entry->pair_mutex,
                                           std::try_to_lock);
    if (!pair_lock.owns_lock()) continue;
    const bool had_plane = AttachedTextPlane(*entry->table_a) != nullptr;
    const bool had_corpus = entry->corpus != nullptr;
    if (!had_plane && !had_corpus && entry->plan_cache.empty()) continue;
    // Cached plans priced this generation's sampled corpus statistics;
    // they are reclaimed with the cache they rode on.
    stats_.plans_evicted += entry->plan_cache.size();
    entry->plan_cache.clear();
    if (!had_plane && !had_corpus) continue;  // Plans-only reclaim.
    if (had_plane) {
      // The Table objects are shared with sessions, so the plane is dropped
      // by republishing plane-free copies (sharing the cells), after which
      // the entry stops pinning the plane and the old table objects free as
      // their last session completes.
      Table stripped_a = *entry->table_a;
      Table stripped_b = *entry->table_b;
      stripped_a.DetachTextPlane();
      stripped_b.DetachTextPlane();
      entry->table_a = std::make_shared<const Table>(std::move(stripped_a));
      entry->table_b = std::make_shared<const Table>(std::move(stripped_b));
    }
    entry->corpus.reset();
    entry->corpus_columns.clear();
    ++evicted;
    ++stats_.planes_evicted;
  }
  return evicted;
}

Result<size_t> SessionManager::RestoreFromCheckpoints() {
  if (limits_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "RestoreFromCheckpoints requires ServiceLimits::checkpoint_dir");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator dir(limits_.checkpoint_dir, ec);
  if (ec) {
    return Status::IoError("cannot read checkpoint dir " +
                           limits_.checkpoint_dir + ": " + ec.message());
  }
  size_t restored = 0;
  for (const fs::directory_entry& file : dir) {
    const std::string name = file.path().filename().string();
    const std::string prefix = "session-";
    const std::string suffix = ".mc";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    char* end = nullptr;
    const uint64_t id =
        std::strtoull(name.c_str() + prefix.size(), &end, 10);
    if (end == nullptr || std::string(end) != suffix || id == 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.restore_failures;
      continue;
    }
    uint64_t retry_seed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (sessions_.count(id) != 0) continue;  // Live or already restored.
      retry_seed = retry_seeds_.NextUint64();
    }
    // Reads go through the same retry schedule as writes; a CRC-corrupt or
    // torn checkpoint keeps returning its typed kIoError and is skipped —
    // one bad file never aborts the whole restore.
    Retrier retrier(limits_.retry, retry_seed);
    std::vector<std::vector<ScoredPair>> lists;
    const Status status = retrier.Run([&]() -> Status {
      Result<std::vector<std::vector<ScoredPair>>> result =
          LoadTopKLists(file.path().string());
      if (!result.ok()) return result.status();
      lists = std::move(result).value();
      return Status::Ok();
    });
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status.ok()) {
      ++stats_.restore_failures;
      continue;
    }
    if (sessions_.count(id) != 0) continue;
    SessionRecord record;
    record.state = SessionState::kComplete;
    record.outcome.id = id;
    record.outcome.state = SessionState::kComplete;
    record.outcome.lists = std::move(lists);
    record.outcome.restored = true;
    sessions_.emplace(id, std::move(record));
    next_id_ = std::max(next_id_, id + 1);
    ++stats_.sessions_restored;
    ++restored;
  }
  return restored;
}

ServiceStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats snapshot = stats_;
  snapshot.memory_used_bytes = budget_.used();
  snapshot.memory_peak_bytes = budget_.peak();
  snapshot.memory_rejected_charges = budget_.rejected();
  snapshot.memory_release_violations = budget_.release_violations();
  return snapshot;
}

size_t SessionManager::live_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_count_;
}

void SessionManager::WatchdogLoop() {
  SetCurrentThreadName("mc-watchdog");
  std::unique_lock<std::mutex> watchdog_lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        watchdog_lock,
        std::chrono::milliseconds(std::max<int64_t>(
            1, limits_.watchdog_period_millis)),
        [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    watchdog_lock.unlock();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Force-cancel sessions past their deadline. Contexts self-cancel
      // when polled, but a session wedged between polls (a long build
      // phase, a stuck fault) needs the push; the counter also surfaces
      // how often deadlines actually bite.
      const Clock::time_point now = Clock::now();
      for (auto& [id, record] : sessions_) {
        if (IsTerminalState(record.state) || !record.has_deadline ||
            record.watchdog_cancelled || now <= record.deadline_time) {
          continue;
        }
        record.context.Cancel();
        record.watchdog_cancelled = true;
        ++stats_.watchdog_cancelled;
      }
      // Memory pressure: shed the least-recently-used idle planes once
      // usage crosses ~90% of the ceiling. In-flight sessions keep their
      // references; the bytes return when the last one drops.
      if (limits_.memory_limit_bytes != 0 &&
          budget_.used() >
              limits_.memory_limit_bytes - limits_.memory_limit_bytes / 10) {
        EvictSharedPlanesLocked(1);
      }
    }
    watchdog_lock.lock();
  }
}

}  // namespace mc
