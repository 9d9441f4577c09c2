// Deterministic chaos harness for the session service: concurrent sessions
// under seeded fault/cancel/evict schedules must all reach a terminal state
// with valid lists or a typed error — never a hang, leak, or crash (the
// survival contract of docs/robustness.md). Run under ASan/TSan by the ci.sh
// `service-chaos` stage; override the seed matrix with MC_CHAOS_SEED.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "service/retry_policy.h"
#include "service/session_manager.h"
#include "table/profile.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace mc {
namespace {

datagen::GeneratedDataset SmallDataset(uint64_t seed = 45) {
  return datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.15), seed);
}

MatchCatcherOptions FastOptions() {
  MatchCatcherOptions options;
  options.joint.k = 20;
  options.joint.num_threads = 2;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Lists of a terminal session must be internally valid whatever cut the
// session short: finite scores in [0, 1], sorted descending per config.
void ExpectValidLists(const std::vector<std::vector<ScoredPair>>& lists,
                      uint64_t id) {
  for (size_t i = 0; i < lists.size(); ++i) {
    double previous = 2.0;
    for (const ScoredPair& entry : lists[i]) {
      EXPECT_TRUE(std::isfinite(entry.score))
          << "session " << id << " list " << i;
      EXPECT_GE(entry.score, 0.0) << "session " << id << " list " << i;
      EXPECT_LE(entry.score, 1.0) << "session " << id << " list " << i;
      EXPECT_LE(entry.score, previous)
          << "session " << id << " list " << i << " not sorted";
      previous = entry.score;
    }
  }
}

void ExpectListsEqual(const std::vector<std::vector<ScoredPair>>& got,
                      const std::vector<std::vector<ScoredPair>>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << label << " list " << i;
    for (size_t e = 0; e < want[i].size(); ++e) {
      EXPECT_EQ(got[i][e].pair, want[i][e].pair)
          << label << " list " << i << " entry " << e;
      EXPECT_DOUBLE_EQ(got[i][e].score, want[i][e].score)
          << label << " list " << i << " entry " << e;
    }
  }
}

// N concurrent sessions over one registered pair must produce lists
// bit-identical to an isolated DebugSession::Create on the same inputs —
// plane/corpus sharing is a cost optimization, never a semantic one.
TEST(ServiceChaosTest, SharedPlanesBitIdenticalToIsolatedSessions) {
  datagen::GeneratedDataset dataset = SmallDataset();
  MatchCatcherOptions options = FastOptions();

  Result<DebugSession> isolated = DebugSession::Create(
      dataset.table_a, dataset.table_b, dataset.gold, options);
  ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
  const std::vector<std::vector<ScoredPair>> want = isolated->TopKLists();

  ServiceLimits limits;
  limits.max_concurrent_sessions = 3;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  SessionRequest request;
  request.pair_key = "fz";
  request.options = options;

  // First session alone: builds and publishes the shared plane + corpus.
  Result<uint64_t> first = manager.Submit(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<SessionOutcome> first_outcome = manager.Wait(*first);
  ASSERT_TRUE(first_outcome.ok());
  ASSERT_EQ(first_outcome->state, SessionState::kComplete)
      << first_outcome->status.ToString();
  ExpectListsEqual(first_outcome->lists, want, "first session");

  // Later sessions ride the caches — and still match bit-for-bit.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> id = manager.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  size_t corpus_hits = 0;
  for (uint64_t id : ids) {
    Result<SessionOutcome> outcome = manager.Wait(id);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, SessionState::kComplete)
        << outcome->status.ToString();
    ExpectListsEqual(outcome->lists, want,
                     "session " + std::to_string(id));
    if (outcome->used_shared_corpus) ++corpus_hits;
  }
  EXPECT_EQ(corpus_hits, ids.size());

  const ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.plane_cache_misses, 1u);  // Exactly one tokenization.
  EXPECT_EQ(stats.plane_cache_hits, ids.size());
  EXPECT_EQ(stats.corpus_builds, 1u);
  EXPECT_EQ(stats.completed, ids.size() + 1);
}

// infer_types sessions rewrite the schema on Table copies of the stored
// pair, which share its cells: they charge the service budget nothing a
// plain session does not, and serve what an isolated session computes.
// The budget is read right after Wait: a finished session has released
// its charges before Wait returns.
TEST(ServiceTableSharingTest, InferTypesSessionsChargeNoTableCopy) {
  const datagen::GeneratedDataset dataset = datagen::GenerateAmazonGoogle(
      datagen::ScaleDims(datagen::kDimsAmazonGoogle, 0.05));
  ASSERT_FALSE(InferAttributeTypes(dataset.table_a) ==
               dataset.table_a.schema())
      << "the test needs a pair whose schema inference rewrites";
  MatchCatcherOptions infer = FastOptions();
  infer.infer_types = true;
  MatchCatcherOptions plain = infer;
  plain.infer_types = false;
  Result<DebugSession> isolated = DebugSession::Create(
      dataset.table_a, dataset.table_b, dataset.gold, infer);
  ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();

  SessionManager manager{ServiceLimits{}};
  ASSERT_TRUE(manager
                  .RegisterTablePair("ag", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());
  auto run = [&](const MatchCatcherOptions& options) {
    SessionRequest request;
    request.pair_key = "ag";
    request.options = options;
    Result<uint64_t> id = manager.Submit(request);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    Result<SessionOutcome> outcome =
        id.ok() ? manager.Wait(*id) : Result<SessionOutcome>(id.status());
    EXPECT_TRUE(outcome.ok());
    if (!outcome.ok()) return SessionOutcome();
    EXPECT_EQ(outcome->state, SessionState::kComplete)
        << outcome->status.ToString();
    return *std::move(outcome);
  };
  // The plain session builds and publishes the plane and the corpus.
  run(plain);
  const size_t baseline = manager.stats().memory_used_bytes;
  EXPECT_GT(baseline, 0u);
  for (int i = 0; i < 3; ++i) {
    const SessionOutcome outcome = run(infer);
    ExpectListsEqual(outcome.lists, isolated->TopKLists(),
                     "infer_types session " + std::to_string(i));
    EXPECT_EQ(manager.stats().memory_used_bytes, baseline)
        << "infer_types session " << i;
  }
  EXPECT_EQ(manager.EvictSharedPlanes(), 1u);
  EXPECT_EQ(manager.stats().memory_used_bytes, 0u);
  EXPECT_EQ(manager.stats().memory_release_violations, 0u);
}

// The chaos scenario proper: a burst of sessions over two pairs with
// probabilistic faults at every retry site, random cancels, tight random
// deadlines, and cache evictions mid-flight. Every admitted session must
// reach a terminal state within the (generous) watchdog window, and its
// outcome must be self-consistent.
void RunChaosScenario(uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  datagen::GeneratedDataset fz = SmallDataset(45);
  datagen::GeneratedDataset fz2 = SmallDataset(46);

  ServiceLimits limits;
  limits.max_concurrent_sessions = 3;
  limits.max_queued_sessions = 4;
  limits.watchdog_period_millis = 5;
  limits.checkpoint_dir = FreshDir("chaos-ckpt-" + std::to_string(seed));
  limits.retry.max_attempts = 3;
  limits.retry.initial_backoff_millis = 1;
  limits.retry.max_backoff_millis = 8;
  limits.seed = seed;

  Rng rng(seed);
  size_t admitted = 0, rejected = 0;
  std::vector<uint64_t> ids;
  {
    SessionManager manager(limits);
    ASSERT_TRUE(
        manager.RegisterTablePair("p0", fz.table_a, fz.table_b, fz.gold)
            .ok());
    ASSERT_TRUE(
        manager.RegisterTablePair("p1", fz2.table_a, fz2.table_b, fz2.gold)
            .ok());

    // Real faults at the real sites, deterministic per (seed, hit order).
    ScopedFaultArm admit_fault("service/admit", FaultKind::kError, 0.10,
                               seed ^ 0x1);
    ScopedFaultArm build_fault("service/build", FaultKind::kError, 0.25,
                               seed ^ 0x2);
    ScopedFaultArm corpus_fault("corpus/build_block", FaultKind::kError,
                                0.02, seed ^ 0x3);
    ScopedFaultArm write_fault("session_io/write", FaultKind::kPartialWrite,
                               0.20, seed ^ 0x4);
    ScopedFaultArm delta_fault("service/delta", FaultKind::kError, 0.25,
                               seed ^ 0x5);

    size_t delta_attempts = 0;
    for (int i = 0; i < 14; ++i) {
      // Built whole, not assigned field by field: assigning pair_key into
      // a default-constructed request trips a GCC 12 -Wmaybe-uninitialized
      // false positive in the sanitizer trees.
      SessionRequest request{.pair_key = rng.NextBool(0.5) ? "p0" : "p1",
                             .options = FastOptions()};
      if (rng.NextBool(0.3)) {
        request.deadline_millis = rng.NextInRange(1, 40);
      }
      Result<uint64_t> id = manager.Submit(request);
      if (!id.ok()) {
        ++rejected;
        // Rejections must be typed and retryable-or-final, never silent.
        EXPECT_TRUE(id.status().code() == StatusCode::kResourceExhausted ||
                    id.status().code() == StatusCode::kUnavailable)
            << id.status().ToString();
        if (id.status().code() == StatusCode::kResourceExhausted) {
          EXPECT_TRUE(id.status().has_retry_after())
              << id.status().ToString();
          EXPECT_GE(id.status().retry_after_millis(), 1);
        }
        continue;
      }
      ++admitted;
      ids.push_back(*id);
      if (rng.NextBool(0.2)) {
        EXPECT_TRUE(manager.CancelSession(*id).ok());
      }
      if (rng.NextBool(0.15)) {
        manager.EvictSharedPlanes();
      }
      // Interleave incremental deltas with live sessions: a failed patch
      // (fault, eviction-forced rebuild refusal, ...) must be typed and
      // leave the pair serving its prior generation; a committed one bumps
      // it. Either way sessions keep terminating with valid lists.
      if (rng.NextBool(0.35)) {
        const bool on_p0 = rng.NextBool(0.5);
        const datagen::GeneratedDataset& source = on_p0 ? fz : fz2;
        TableDelta delta;
        delta.side = static_cast<uint8_t>(rng.NextBool(0.5) ? 0 : 1);
        const Table& base =
            delta.side == 0 ? source.table_a : source.table_b;
        TableDelta::RowEdit edit;
        edit.row = 0;
        for (size_t c = 0; c < base.num_columns(); ++c) {
          edit.values.emplace_back(base.Value(0, c));
        }
        edit.values[0] += " chaos" + std::to_string(i);
        delta.mutated.push_back(std::move(edit));
        ++delta_attempts;
        const Status applied =
            manager.ApplyTableDelta(on_p0 ? "p0" : "p1", delta);
        if (!applied.ok()) {
          EXPECT_TRUE(applied.code() == StatusCode::kUnavailable ||
                      applied.code() == StatusCode::kResourceExhausted)
              << applied.ToString();
        }
      }
    }

    // Hang-proofing: a bounded wait must suffice for every session.
    for (uint64_t id : ids) {
      Result<SessionOutcome> outcome = manager.WaitFor(id, 30000);
      ASSERT_TRUE(outcome.ok()) << "session " << id << " never terminal: "
                                << outcome.status().ToString();
      const SessionOutcome& result = *outcome;
      switch (result.state) {
        case SessionState::kComplete:
          EXPECT_FALSE(result.truncated);
          EXPECT_TRUE(result.status.ok());
          ExpectValidLists(result.lists, id);
          break;
        case SessionState::kTruncated:
          EXPECT_TRUE(result.truncated);
          ExpectValidLists(result.lists, id);
          break;
        case SessionState::kFailed:
        case SessionState::kCancelled:
          EXPECT_FALSE(result.status.ok())
              << "terminal error state without a typed status";
          EXPECT_NE(result.status.code(), StatusCode::kInternal)
              << result.status.ToString();
          break;
        default:
          FAIL() << "non-terminal state after WaitFor: "
                 << SessionStateName(result.state);
      }
    }

    const ServiceStats stats = manager.stats();
    EXPECT_EQ(stats.admitted, admitted);
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.completed + stats.truncated + stats.failed +
                  stats.cancelled,
              admitted);
    // Delta conservation: every attempt either committed or failed typed.
    EXPECT_EQ(stats.deltas_applied + stats.delta_failures, delta_attempts);
    EXPECT_EQ(stats.memory_release_violations, 0u);
    EXPECT_EQ(manager.live_sessions(), 0u);
    manager.Shutdown();
  }
  // Destruction after Shutdown must be clean (no leaks under ASan, no
  // use-after-free of pool tasks under TSan).
}

TEST(ServiceChaosTest, SeedMatrix) {
  std::vector<uint64_t> seeds = {101, 202, 303};
  if (const char* env = std::getenv("MC_CHAOS_SEED")) {
    seeds = {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  for (uint64_t seed : seeds) RunChaosScenario(seed);
}

TEST(ServiceChaosTest, AdmissionRejectsTypedWhenFull) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.6));
  ServiceLimits limits;
  limits.max_concurrent_sessions = 1;
  limits.max_queued_sessions = 0;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  SessionRequest request;
  request.pair_key = "fz";
  request.options = FastOptions();

  Result<uint64_t> first = manager.Submit(request);
  ASSERT_TRUE(first.ok());
  // Capacity 1: the next submission while the first is live must be a
  // typed kResourceExhausted carrying a usable retry-after hint.
  Result<uint64_t> second = manager.Submit(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(second.status().has_retry_after());
  EXPECT_GE(second.status().retry_after_millis(), 1);

  // Unknown pair and impossible cost are final, not retryable.
  SessionRequest unknown = request;
  unknown.pair_key = "nope";
  EXPECT_EQ(manager.Submit(unknown).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(manager.Wait(*first).ok());

  ServiceLimits tiny = limits;
  tiny.max_session_cost = 1;
  SessionManager strict(tiny);
  ASSERT_TRUE(strict
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());
  Result<uint64_t> too_big = strict.Submit(request);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsRetryableStatus(too_big.status()));
}

TEST(ServiceChaosTest, BuildFaultRetriesThenSucceeds) {
  datagen::GeneratedDataset dataset = SmallDataset();
  ServiceLimits limits;
  limits.retry.max_attempts = 3;
  limits.retry.initial_backoff_millis = 1;
  limits.retry.max_backoff_millis = 4;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());
  SessionRequest request;
  request.pair_key = "fz";
  request.options = FastOptions();

  // First build attempt fails with a retryable injected fault; the retry
  // policy rebuilds (idempotent) and the session still completes.
  ScopedFaultArm fault("service/build", FaultKind::kError, 1);
  Result<uint64_t> id = manager.Submit(request);
  ASSERT_TRUE(id.ok());
  Result<SessionOutcome> outcome = manager.Wait(*id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, SessionState::kComplete)
      << outcome->status.ToString();
  EXPECT_GE(fault.HitCount(), 2u);  // Failed attempt + successful retry.
}

TEST(ServiceChaosTest, MemoryBudgetDegradesToTruncated) {
  datagen::GeneratedDataset dataset = SmallDataset();
  ServiceLimits limits;
  limits.memory_limit_bytes = 256;  // Far below any arena.
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());
  SessionRequest request;
  request.pair_key = "fz";
  request.options = FastOptions();
  Result<uint64_t> id = manager.Submit(request);
  ASSERT_TRUE(id.ok());
  Result<SessionOutcome> outcome = manager.Wait(*id);
  ASSERT_TRUE(outcome.ok());
  // Plane and corpus charges are refused, so the session degrades to a
  // truncated (possibly empty) result instead of overshooting the ceiling.
  EXPECT_EQ(outcome->state, SessionState::kTruncated)
      << SessionStateName(outcome->state) << " "
      << outcome->status.ToString();
  const ServiceStats stats = manager.stats();
  EXPECT_GT(stats.memory_rejected_charges, 0u);
  EXPECT_LE(stats.memory_used_bytes, limits.memory_limit_bytes);
}

TEST(ServiceChaosTest, CheckpointRestoreAfterRestart) {
  const std::string dir = FreshDir("service-restore");
  datagen::GeneratedDataset dataset = SmallDataset();
  std::vector<std::vector<ScoredPair>> want;
  uint64_t completed_id = 0;
  {
    ServiceLimits limits;
    limits.checkpoint_dir = dir;
    SessionManager manager(limits);
    ASSERT_TRUE(manager
                    .RegisterTablePair("fz", dataset.table_a,
                                       dataset.table_b, dataset.gold)
                    .ok());
    SessionRequest request;
    request.pair_key = "fz";
    request.options = FastOptions();
    Result<uint64_t> id = manager.Submit(request);
    ASSERT_TRUE(id.ok());
    completed_id = *id;
    Result<SessionOutcome> outcome = manager.Wait(completed_id);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, SessionState::kComplete);
    ASSERT_TRUE(outcome->checkpoint_status.ok())
        << outcome->checkpoint_status.ToString();
    want = outcome->lists;
  }  // "Crash": the manager dies; the checkpoint survives.

  {
    ServiceLimits limits;
    limits.checkpoint_dir = dir;
    SessionManager manager(limits);
    Result<size_t> restored = manager.RestoreFromCheckpoints();
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, 1u);
    Result<SessionOutcome> outcome = manager.Wait(completed_id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, SessionState::kComplete);
    EXPECT_TRUE(outcome->restored);
    ExpectListsEqual(outcome->lists, want, "restored session");
  }

  // Corrupt the checkpoint body: restore must skip it with a typed count,
  // not crash, and report zero sessions.
  {
    const std::string path =
        dir + "/session-" + std::to_string(completed_id) + ".mc";
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(content.size(), 24u);
    content[content.size() / 2] ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    out.close();

    ServiceLimits limits;
    limits.checkpoint_dir = dir;
    limits.retry.initial_backoff_millis = 1;
    limits.retry.max_backoff_millis = 2;
    SessionManager manager(limits);
    Result<size_t> restored = manager.RestoreFromCheckpoints();
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, 0u);
    EXPECT_GE(manager.stats().restore_failures, 1u);
  }
}

TEST(ServiceChaosTest, ShutdownDrainsEverySession) {
  datagen::GeneratedDataset dataset = SmallDataset();
  ServiceLimits limits;
  limits.max_concurrent_sessions = 2;
  limits.max_queued_sessions = 8;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());
  SessionRequest request;
  request.pair_key = "fz";
  request.options = FastOptions();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    Result<uint64_t> id = manager.Submit(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  manager.Shutdown();  // Cancels the root; drains queued + running.
  for (uint64_t id : ids) {
    Result<SessionState> state = manager.StateOf(id);
    ASSERT_TRUE(state.ok());
    EXPECT_TRUE(IsTerminalState(*state)) << SessionStateName(*state);
  }
  EXPECT_EQ(manager.live_sessions(), 0u);
  // Post-shutdown submissions are typed, not crashes.
  EXPECT_EQ(manager.Submit(request).status().code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace mc
