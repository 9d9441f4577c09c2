// Cross-session plan cache suite. The contract under test
// (docs/algorithms.md §"The plan cache"): a session served a memoized joint
// plan is bit-identical to one that planned fresh — across warm repeats,
// randomized delta schedules (every commit invalidates the pair's cached
// plans), an injected torn-cache-entry fault (degrades to re-planning, never
// to wrong output), and LRU plane eviction (reclaims the plans, counted in
// ServiceStats::plans_evicted). Options that do not affect the plan do not
// split the cache. Run under ASan by the ci.sh `plan-cache` stage; override
// the seed matrix with MC_PLANCACHE_SEED.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_catcher.h"
#include "core/session_io.h"
#include "datagen/generator.h"
#include "service/session_manager.h"
#include "ssj/join_planner.h"
#include "table/table_delta.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace mc {
namespace {

datagen::GeneratedDataset SmallDataset(uint64_t seed = 53) {
  return datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), seed);
}

std::vector<uint64_t> SeedMatrix() {
  if (const char* env = std::getenv("MC_PLANCACHE_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  return {5, 17};
}

// Planner-eligible options: q = 0 is what the cache keys on — a session
// with a fixed q has no plan to memoize.
MatchCatcherOptions PlannerOptions() {
  MatchCatcherOptions options;
  options.joint.k = 20;
  options.joint.q = 0;
  options.joint.num_threads = 2;
  options.infer_types = false;  // Schema fixed: delta rounds keep the tree.
  return options;
}

SessionOutcome MustRun(SessionManager& manager, const SessionRequest& request) {
  Result<uint64_t> id = manager.Submit(request);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  Result<SessionOutcome> outcome = manager.Wait(*id);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->state, SessionState::kComplete)
      << outcome->status.ToString();
  return *outcome;
}

// One random delta against `table`: mutated rows with fresh tokens, an
// append, an occasional tombstone — enough shape variety to shift the
// planner's corpus statistics between generations.
TableDelta RandomDelta(const Table& table, uint8_t side, size_t generation,
                       Rng& rng) {
  TableDelta delta;
  delta.side = side;
  const size_t rows = table.num_rows();
  const size_t cols = table.num_columns();
  auto row_values = [&](size_t row) {
    std::vector<std::string> values;
    values.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      values.emplace_back(table.Value(row, c));
    }
    return values;
  };
  const size_t mutations = 1 + rng.NextBelow(3);
  for (size_t m = 0; m < mutations; ++m) {
    TableDelta::RowEdit edit;
    edit.row = static_cast<uint32_t>(rng.NextBelow(rows));
    edit.values = row_values(edit.row);
    edit.values[rng.NextBelow(cols)] +=
        " g" + std::to_string(generation) + "tok" + std::to_string(m);
    delta.mutated.push_back(std::move(edit));
  }
  if (rng.NextBool(0.7)) {
    std::vector<std::string> appended = row_values(rng.NextBelow(rows));
    appended[0] += " appended" + std::to_string(generation);
    delta.appended.push_back(std::move(appended));
  }
  return delta;
}

// ---------------------------------------------------------------------------
// Warm reuse: the first planner-eligible session on a pair publishes its
// plan; every following identical session is served from the cache with
// bit-identical lists, the same bytes as an isolated session that plans
// fresh.

TEST(PlanCacheTest, WarmSessionsServeTheMemoizedPlanBitIdentically) {
  datagen::GeneratedDataset dataset = SmallDataset();
  SessionRequest request;
  request.pair_key = "fz";
  request.options = PlannerOptions();

  ServiceLimits limits;
  limits.max_concurrent_sessions = 2;
  SessionManager cached(limits);
  ASSERT_TRUE(cached
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  const SessionOutcome cold = MustRun(cached, request);
  ASSERT_TRUE(cold.planner_used);
  EXPECT_FALSE(cold.plan_cache_hit);
  const uint32_t want_crc = TopKListsCrc(cold.lists);

  for (int warm = 0; warm < 2; ++warm) {
    const SessionOutcome outcome = MustRun(cached, request);
    EXPECT_TRUE(outcome.plan_cache_hit) << "warm session " << warm;
    EXPECT_TRUE(outcome.planner_used);
    EXPECT_EQ(TopKListsCrc(outcome.lists), want_crc)
        << "cached-plan session diverged from the fresh-planned one";
    // The served plan is the published one, not a re-derivation.
    EXPECT_EQ(outcome.plan.q, cold.plan.q);
    EXPECT_EQ(outcome.plan.shards, cold.plan.shards);
    EXPECT_EQ(outcome.plan.cost_per_q, cold.plan.cost_per_q);
  }

  ServiceStats stats = cached.stats();
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.plans_computed, 1u);  // Hits never run the planner.

  // An isolated session never sees a cached plan: it runs the planner and
  // produces the same bytes.
  Result<DebugSession> isolated = DebugSession::Create(
      dataset.table_a, dataset.table_b, dataset.gold, request.options);
  ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
  EXPECT_TRUE(isolated->joint_result().planner_used);
  EXPECT_FALSE(isolated->joint_result().plan_from_cache);
  EXPECT_EQ(TopKListsCrc(isolated->TopKLists()), want_crc);
}

// ---------------------------------------------------------------------------
// Randomized delta schedules: every committed delta invalidates the pair's
// cached plans (the old plan was fitted to a corpus generation that no
// longer exists), and the session served the re-published plan is
// bit-identical to fresh-planned sessions over the same patched state —
// both the re-planning session on this manager and an isolated session on
// the mirrored tables.

TEST(PlanCacheTest, DeltaSchedulesInvalidateAndStayBitIdentical) {
  for (uint64_t seed : SeedMatrix()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    datagen::GeneratedDataset dataset = SmallDataset();
    Table table_a = dataset.table_a;  // Mirror of the service's tables.
    Table table_b = dataset.table_b;

    SessionRequest request;
    request.pair_key = "fz";
    request.options = PlannerOptions();

    ServiceLimits limits;
    limits.max_concurrent_sessions = 2;
    SessionManager manager(limits);
    ASSERT_TRUE(
        manager.RegisterTablePair("fz", table_a, table_b, dataset.gold).ok());

    // Warm the cache on generation 1.
    MustRun(manager, request);
    EXPECT_TRUE(MustRun(manager, request).plan_cache_hit);

    Rng rng(seed);
    for (size_t round = 1; round <= 3; ++round) {
      const uint8_t side = static_cast<uint8_t>(round % 2);
      const TableDelta delta =
          RandomDelta(side == 0 ? table_a : table_b, side, round, rng);
      ASSERT_TRUE(ApplyDeltaToTable(side == 0 ? table_a : table_b, delta).ok());
      ASSERT_TRUE(manager.ApplyTableDelta("fz", delta).ok());

      // The ground truth: an isolated session on the mirrored tables always
      // plans fresh, and the patched planes the manager plans over are
      // bit-identical to its from-scratch builds (the delta patch
      // contract), so any cache-induced divergence shows up as a checksum
      // mismatch.
      Result<DebugSession> fresh =
          DebugSession::Create(table_a, table_b, dataset.gold,
                               request.options);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      const uint32_t want_crc = TopKListsCrc(fresh->TopKLists());

      const SessionOutcome replanned = MustRun(manager, request);
      EXPECT_FALSE(replanned.plan_cache_hit)
          << "a committed delta must invalidate the cached plan (round "
          << round << ")";
      EXPECT_EQ(TopKListsCrc(replanned.lists), want_crc) << "round " << round;

      const SessionOutcome served = MustRun(manager, request);
      EXPECT_TRUE(served.plan_cache_hit) << "round " << round;
      EXPECT_EQ(TopKListsCrc(served.lists), want_crc)
          << "cached-plan session diverged after the delta (round " << round
          << ")";
    }

    const ServiceStats stats = manager.stats();
    EXPECT_EQ(stats.deltas_applied, 3u);
    // 1 cold + 3 post-delta re-plans; every second session a hit.
    EXPECT_EQ(stats.plan_cache_misses, 4u);
    EXPECT_EQ(stats.plan_cache_hits, 4u);
  }
}

// ---------------------------------------------------------------------------
// Fault point "service/plan_cache": a torn cache entry is dropped and the
// session re-plans — the degradation is one planner run, never wrong
// output, and the re-published plan serves the next session again.

TEST(PlanCacheTest, TornCacheEntryDegradesToReplanningNeverWrongOutput) {
  datagen::GeneratedDataset dataset = SmallDataset();
  SessionRequest request;
  request.pair_key = "fz";
  request.options = PlannerOptions();

  ServiceLimits limits;
  limits.max_concurrent_sessions = 2;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  const SessionOutcome cold = MustRun(manager, request);
  const uint32_t want_crc = TopKListsCrc(cold.lists);
  EXPECT_TRUE(MustRun(manager, request).plan_cache_hit);

  {
    ScopedFaultArm fault("service/plan_cache", FaultKind::kError);
    const SessionOutcome torn = MustRun(manager, request);
    EXPECT_GE(fault.HitCount(), 1u);
    EXPECT_FALSE(torn.plan_cache_hit)
        << "a torn entry must be treated as a miss";
    EXPECT_TRUE(torn.planner_used);
    EXPECT_EQ(TopKListsCrc(torn.lists), want_crc)
        << "the fault may cost a planner run, never output";
  }

  // The faulted session re-planned and re-published; the cache is warm
  // again the moment the fault clears.
  const SessionOutcome recovered = MustRun(manager, request);
  EXPECT_TRUE(recovered.plan_cache_hit);
  EXPECT_EQ(TopKListsCrc(recovered.lists), want_crc);

  const ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.plan_cache_misses, 2u);  // Cold + torn.
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.plans_computed, 2u);
}

// ---------------------------------------------------------------------------
// LRU plane eviction reclaims the pair's cached plans along with the plane
// and corpus, counted in plans_evicted; the next session re-plans and
// re-warms. Delta invalidations are deliberately not part of this counter.

TEST(PlanCacheTest, EvictionReclaimsCachedPlans) {
  datagen::GeneratedDataset dataset = SmallDataset();
  SessionRequest request;
  request.pair_key = "fz";
  request.options = PlannerOptions();

  ServiceLimits limits;
  limits.max_concurrent_sessions = 2;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  const SessionOutcome cold = MustRun(manager, request);
  const uint32_t want_crc = TopKListsCrc(cold.lists);
  EXPECT_TRUE(MustRun(manager, request).plan_cache_hit);
  EXPECT_EQ(manager.stats().plans_evicted, 0u);

  EXPECT_GE(manager.EvictSharedPlanes(), 1u);
  EXPECT_EQ(manager.stats().plans_evicted, 1u);

  const SessionOutcome replanned = MustRun(manager, request);
  EXPECT_FALSE(replanned.plan_cache_hit)
      << "eviction must reclaim the cached plan";
  EXPECT_EQ(TopKListsCrc(replanned.lists), want_crc);
  const SessionOutcome rewarmed = MustRun(manager, request);
  EXPECT_TRUE(rewarmed.plan_cache_hit);
  EXPECT_EQ(TopKListsCrc(rewarmed.lists), want_crc);
}

// ---------------------------------------------------------------------------
// joint.planner_threshold and joint.planner_hybrid have no effect, so they
// are not part of the plan-cache signature: two sessions that differ only in
// those flags share one cached plan (the second is a hit) and return
// bit-identical lists.

TEST(PlanCacheTest, InertThresholdFlagSharesTheCachedPlan) {
  datagen::GeneratedDataset dataset = SmallDataset();
  ServiceLimits limits;
  limits.max_concurrent_sessions = 2;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  SessionRequest on;
  on.pair_key = "fz";
  on.options = PlannerOptions();
  on.options.joint.planner_threshold = true;
  on.options.joint.planner_hybrid = true;
  SessionRequest off = on;
  off.options.joint.planner_threshold = false;
  off.options.joint.planner_hybrid = false;

  const SessionOutcome first = MustRun(manager, on);
  ASSERT_TRUE(first.planner_used);
  EXPECT_FALSE(first.plan_cache_hit);
  const SessionOutcome second = MustRun(manager, off);
  EXPECT_TRUE(second.plan_cache_hit)
      << "the inert flags must not split the plan-cache signature";
  EXPECT_EQ(manager.stats().plans_computed, 1u);

  ASSERT_EQ(second.lists.size(), first.lists.size());
  for (size_t c = 0; c < first.lists.size(); ++c) {
    ASSERT_EQ(second.lists[c].size(), first.lists[c].size()) << "config " << c;
    for (size_t r = 0; r < first.lists[c].size(); ++r) {
      EXPECT_EQ(second.lists[c][r].pair, first.lists[c][r].pair)
          << "config " << c << " rank " << r;
      EXPECT_EQ(second.lists[c][r].score, first.lists[c][r].score)
          << "config " << c << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace mc
