// Randomized delta-equivalence suite: every incrementally patched artifact
// — text plane, SSJ corpus, and the service's shared planes — must be
// content-identical to rebuilding from scratch on the mutated tables, across seeded random delta schedules, at 1 and N
// threads, and under injected faults mid-patch (a failed patch leaves the
// prior generation intact). Run under ASan/TSan by the ci.sh
// `delta-equivalence` stage; override the seed matrix with MC_DELTA_SEED.

#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "core/match_catcher.h"
#include "core/session_io.h"
#include "datagen/generator.h"
#include "service/session_manager.h"
#include "ssj/corpus.h"
#include "table/table_delta.h"
#include "table/tokenized_table.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace mc {
namespace {

datagen::GeneratedDataset SmallDataset(uint64_t seed = 47) {
  return datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), seed);
}

std::vector<uint64_t> SeedMatrix() {
  if (const char* env = std::getenv("MC_DELTA_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  return {3, 11, 29};
}

// One random delta against `table`: a few mutated rows (fresh tokens, value
// swaps, cleared cells), some appends, an occasional tombstone. Exercises
// every edit kind the patchers distinguish.
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
  std::vector<uint32_t> used;
  auto fresh_row = [&]() -> std::optional<uint32_t> {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const uint32_t row = static_cast<uint32_t>(rng.NextBelow(rows));
      bool seen = false;
      for (uint32_t u : used) seen = seen || u == row;
      if (!seen) {
        used.push_back(row);
        return row;
      }
    }
    return std::nullopt;
  };
  const size_t mutations = 1 + rng.NextBelow(3);
  for (size_t m = 0; m < mutations; ++m) {
    std::optional<uint32_t> row = fresh_row();
    if (!row.has_value()) break;
    TableDelta::RowEdit edit;
    edit.row = *row;
    edit.values = row_values(*row);
    const size_t column = rng.NextBelow(cols);
    switch (rng.NextBelow(3)) {
      case 0:  // Fresh tokens: grows the dictionary past the base build.
        edit.values[column] +=
            " delta" + std::to_string(generation) + "tok" + std::to_string(m);
        break;
      case 1:  // Existing tokens from another row: df shifts, no growth.
        edit.values[column] = row_values(rng.NextBelow(rows))[column];
        break;
      default:  // Cleared cell: tokens retire, the cell goes missing.
        edit.values[column] = "";
        break;
    }
    delta.mutated.push_back(std::move(edit));
  }
  if (rng.NextBool(0.7)) {
    std::vector<std::string> appended = row_values(rng.NextBelow(rows));
    appended[0] += " appended" + std::to_string(generation);
    delta.appended.push_back(std::move(appended));
  }
  if (rng.NextBool(0.4)) {
    std::optional<uint32_t> victim = fresh_row();
    if (victim.has_value()) delta.deleted.push_back(*victim);
  }
  return delta;
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

// ---------------------------------------------------------------------------
// Text plane: patched CSR arenas == from-scratch rebuild, bit for bit.

TEST(DeltaEquivalenceTest, PlanePatchMatchesRebuildAcrossRandomSchedules) {
  datagen::GeneratedDataset dataset = SmallDataset();
  for (const uint64_t seed : SeedMatrix()) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      Rng rng(seed);
      Table table_a = dataset.table_a;
      Table table_b = dataset.table_b;
      TextPlaneBuildOptions options;
      options.num_threads = threads;
      std::shared_ptr<const TokenizedTable> plane =
          TokenizedTable::Build(table_a, table_b, options);
      ASSERT_FALSE(plane->truncated());
      for (size_t generation = 1; generation <= 5; ++generation) {
        const uint8_t side = static_cast<uint8_t>(generation % 2);
        const Table& target = side == 0 ? table_a : table_b;
        const TableDelta delta =
            RandomDelta(target, side, generation, rng);
        const size_t base_rows = target.num_rows();
        ASSERT_TRUE(
            ApplyDeltaToTable(side == 0 ? table_a : table_b, delta).ok());
        Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        std::shared_ptr<const TokenizedTable> patched =
            TokenizedTable::ApplyDelta(*plane, table_a, table_b, *rows,
                                       options);
        ASSERT_NE(patched, nullptr)
            << "seed " << seed << " generation " << generation;
        std::shared_ptr<const TokenizedTable> rebuilt =
            TokenizedTable::Build(table_a, table_b, options);
        ASSERT_FALSE(rebuilt->truncated());
        EXPECT_EQ(patched->ContentCrc(), rebuilt->ContentCrc())
            << "seed " << seed << " threads " << threads << " generation "
            << generation;
        EXPECT_EQ(rebuilt->dead_tokens(), 0u);
        plane = std::move(patched);  // Patches compound across generations.
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SSJ corpus: patched rank/mask arenas == from-scratch rebuild.

TEST(DeltaEquivalenceTest, CorpusPatchMatchesRebuildAcrossRandomSchedules) {
  datagen::GeneratedDataset dataset = SmallDataset();
  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const std::vector<size_t> columns = attributes->columns;

  for (const uint64_t seed : SeedMatrix()) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      Rng rng(seed ^ 0x9e3779b9);
      Table table_a = dataset.table_a;
      Table table_b = dataset.table_b;
      CorpusBuildOptions options;
      options.num_threads = threads;
      auto corpus = std::make_shared<SsjCorpus>(
          SsjCorpus::Build(table_a, table_b, columns, options));
      ASSERT_FALSE(corpus->truncated());
      for (size_t generation = 1; generation <= 5; ++generation) {
        const uint8_t side = static_cast<uint8_t>((generation + 1) % 2);
        const Table& target = side == 0 ? table_a : table_b;
        const TableDelta delta =
            RandomDelta(target, side, generation, rng);
        const size_t base_rows = target.num_rows();
        ASSERT_TRUE(
            ApplyDeltaToTable(side == 0 ? table_a : table_b, delta).ok());
        Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        std::optional<SsjCorpus> patched = SsjCorpus::ApplyDelta(
            *corpus, table_a, table_b, columns, *rows, options);
        ASSERT_TRUE(patched.has_value())
            << "seed " << seed << " generation " << generation;
        const SsjCorpus rebuilt =
            SsjCorpus::Build(table_a, table_b, columns, options);
        ASSERT_FALSE(rebuilt.truncated());
        EXPECT_EQ(patched->ContentCrc(), rebuilt.ContentCrc())
            << "seed " << seed << " threads " << threads << " generation "
            << generation;
        corpus = std::make_shared<SsjCorpus>(*std::move(patched));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Service: ApplyTableDelta patches the shared planes; sessions on the
// patched pair are bit-identical to a fresh isolated session on the
// mutated tables.

TEST(DeltaEquivalenceTest, ServiceDeltaMatchesFreshSessionOnMutatedTables) {
  datagen::GeneratedDataset dataset = SmallDataset();
  Table table_a = dataset.table_a;  // Mirror of the service's tables.
  Table table_b = dataset.table_b;

  MatchCatcherOptions options;
  options.joint.k = 25;
  options.joint.num_threads = 2;

  ServiceLimits limits;
  limits.max_concurrent_sessions = 2;
  SessionManager manager(limits);
  ASSERT_TRUE(
      manager.RegisterTablePair("fz", table_a, table_b, dataset.gold).ok());

  SessionRequest request;
  request.pair_key = "fz";
  request.options = options;

  // First session: builds and caches plane and corpus.
  Result<uint64_t> first = manager.Submit(request);
  ASSERT_TRUE(first.ok());
  Result<SessionOutcome> first_outcome = manager.Wait(*first);
  ASSERT_TRUE(first_outcome.ok());
  ASSERT_EQ(first_outcome->state, SessionState::kComplete);
  EXPECT_EQ(first_outcome->plane_generation, 1u);

  Rng rng(101);
  for (size_t generation = 1; generation <= 3; ++generation) {
    const uint8_t side = static_cast<uint8_t>(generation % 2);
    const TableDelta delta = RandomDelta(side == 0 ? table_a : table_b,
                                         side, generation, rng);
    ASSERT_TRUE(
        ApplyDeltaToTable(side == 0 ? table_a : table_b, delta).ok());
    const Status applied = manager.ApplyTableDelta("fz", delta);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    Result<uint64_t> pair_generation = manager.PairGeneration("fz");
    ASSERT_TRUE(pair_generation.ok());
    EXPECT_EQ(*pair_generation, generation + 1);

    // A fresh isolated session over the mutated tables is the ground
    // truth for everything the service now serves.
    Result<DebugSession> isolated =
        DebugSession::Create(table_a, table_b, dataset.gold, options);
    ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
    const std::vector<std::vector<ScoredPair>> want = isolated->TopKLists();

    Result<uint64_t> id = manager.Submit(request);
    ASSERT_TRUE(id.ok());
    Result<SessionOutcome> outcome = manager.Wait(*id);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, SessionState::kComplete)
        << outcome->status.ToString();
    EXPECT_EQ(outcome->plane_generation, generation + 1);
    ExpectListsEqual(outcome->lists, want,
                     "post-delta session, generation " +
                         std::to_string(generation + 1));
  }

  const ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.deltas_applied, 3u);
  EXPECT_EQ(stats.delta_failures, 0u);
  EXPECT_EQ(stats.planes_patched, 3u);
  EXPECT_EQ(stats.corpora_patched, 3u);
}

// ---------------------------------------------------------------------------
// Faults mid-patch: a failed delta must leave the prior generation — plane
// and corpus — intact and visible, with a typed error.

TEST(DeltaEquivalenceTest, FaultMidPatchLeavesPriorGenerationIntact) {
  datagen::GeneratedDataset dataset = SmallDataset();
  MatchCatcherOptions options;
  options.joint.k = 20;
  options.joint.num_threads = 2;

  for (const char* point :
       {"service/delta", "text_plane/apply_delta", "corpus/apply_delta"}) {
    SCOPED_TRACE(point);
    ServiceLimits limits;
    limits.max_concurrent_sessions = 2;
    SessionManager manager(limits);
    ASSERT_TRUE(manager
                    .RegisterTablePair("fz", dataset.table_a,
                                       dataset.table_b, dataset.gold)
                    .ok());
    SessionRequest request;
    request.pair_key = "fz";
    request.options = options;
    Result<uint64_t> first = manager.Submit(request);
    ASSERT_TRUE(first.ok());
    Result<SessionOutcome> first_outcome = manager.Wait(*first);
    ASSERT_TRUE(first_outcome.ok());
    ASSERT_EQ(first_outcome->state, SessionState::kComplete);

    TableDelta delta;
    delta.side = 0;
    delta.mutated.push_back(
        {0, [&] {
           std::vector<std::string> values;
           for (size_t c = 0; c < dataset.table_a.num_columns(); ++c) {
             values.emplace_back(dataset.table_a.Value(0, c));
           }
           values[0] += " faulted";
           return values;
         }()});

    {
      ScopedFaultArm fault(point, FaultKind::kError);
      const Status applied = manager.ApplyTableDelta("fz", delta);
      EXPECT_FALSE(applied.ok());
      EXPECT_EQ(applied.code(), StatusCode::kUnavailable)
          << applied.ToString();
    }
    // Prior generation fully intact: generation number, and a session that
    // still runs over the old planes with the old content.
    Result<uint64_t> generation = manager.PairGeneration("fz");
    ASSERT_TRUE(generation.ok());
    EXPECT_EQ(*generation, 1u);
    Result<uint64_t> id = manager.Submit(request);
    ASSERT_TRUE(id.ok());
    Result<SessionOutcome> outcome = manager.Wait(*id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, SessionState::kComplete);
    EXPECT_EQ(outcome->plane_generation, 1u);
    EXPECT_EQ(TopKListsCrc(outcome->lists),
              TopKListsCrc(first_outcome->lists));

    // With the fault gone the same delta commits.
    const Status applied = manager.ApplyTableDelta("fz", delta);
    EXPECT_TRUE(applied.ok()) << applied.ToString();
    generation = manager.PairGeneration("fz");
    ASSERT_TRUE(generation.ok());
    EXPECT_EQ(*generation, 2u);
    const ServiceStats stats = manager.stats();
    EXPECT_EQ(stats.delta_failures, 1u);
    EXPECT_EQ(stats.deltas_applied, 1u);
  }
}

TEST(DeltaEquivalenceTest, MalformedDeltasAreTypedAndChangeNothing) {
  datagen::GeneratedDataset dataset = SmallDataset();
  ServiceLimits limits;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());

  EXPECT_EQ(manager.ApplyTableDelta("nope", {}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager.ApplyTableDelta("fz", {}).code(),
            StatusCode::kInvalidArgument);  // Empty delta.

  TableDelta out_of_range;
  out_of_range.side = 0;
  out_of_range.deleted.push_back(
      static_cast<uint32_t>(dataset.table_a.num_rows() + 100));
  EXPECT_EQ(manager.ApplyTableDelta("fz", out_of_range).code(),
            StatusCode::kInvalidArgument);

  TableDelta bad_arity;
  bad_arity.side = 1;
  bad_arity.mutated.push_back({0, {"just one cell"}});
  EXPECT_EQ(manager.ApplyTableDelta("fz", bad_arity).code(),
            StatusCode::kInvalidArgument);

  // A well-formed edit aimed at a side that is neither A (0) nor B (1).
  TableDelta bad_side;
  bad_side.side = 2;
  bad_side.deleted.push_back(0);
  EXPECT_EQ(manager.ApplyTableDelta("fz", bad_side).code(),
            StatusCode::kInvalidArgument);

  Result<uint64_t> generation = manager.PairGeneration("fz");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 1u);  // Nothing committed.
  EXPECT_EQ(manager.stats().delta_failures, 4u);
}

// ---------------------------------------------------------------------------
// Displaced generations and eviction: a committed delta frees the
// generation it displaces once no session pins it, an evictor leaves a
// pinned pair's live plane alone, and the eviction counter conserves.

TEST(ServiceEvictionTest, SupersededGenerationsReclaimBeforeLivePlanes) {
  datagen::GeneratedDataset dataset = SmallDataset();
  MatchCatcherOptions options;
  options.joint.k = 10;
  options.joint.num_threads = 1;

  ServiceLimits limits;
  limits.max_concurrent_sessions = 1;
  SessionManager manager(limits);
  ASSERT_TRUE(manager
                  .RegisterTablePair("fz", dataset.table_a, dataset.table_b,
                                     dataset.gold)
                  .ok());
  SessionRequest request;
  request.pair_key = "fz";
  request.options = options;
  Result<uint64_t> first = manager.Submit(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(manager.Wait(*first).ok());

  // Four committed deltas with no session in flight: each displaced plane
  // and corpus is freed on commit, so the budget holds one generation, not
  // one per delta. The reference is the first patched generation: a patch
  // grows its arenas in whole chunks while a build reserves its exact size,
  // so on this small pair one patched generation outweighs the built one.
  size_t first_patched_used = 0;
  for (size_t g = 0; g < 4; ++g) {
    TableDelta delta;
    delta.side = 0;
    std::vector<std::string> values;
    for (size_t c = 0; c < dataset.table_a.num_columns(); ++c) {
      values.emplace_back(dataset.table_a.Value(0, c));
    }
    values[0] += " gen" + std::to_string(g);
    delta.mutated.push_back({0, std::move(values)});
    ASSERT_TRUE(manager.ApplyTableDelta("fz", delta).ok());
    const size_t used = manager.stats().memory_used_bytes;
    if (g == 0) {
      first_patched_used = used;
      ASSERT_GT(first_patched_used, 0u);  // The patched plane and corpus.
    }
    EXPECT_LT(used, 2 * first_patched_used) << "after delta " << g + 1;
  }
  Result<uint64_t> generation = manager.PairGeneration("fz");
  ASSERT_TRUE(generation.ok());
  ASSERT_EQ(*generation, 5u);

  // A pinned pair keeps its live plane. The session blocks inside its build
  // (a fixed q leaves config_sink to the caller) with its pin held, and an
  // unbounded eviction meanwhile finds nothing idle to take.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  SessionRequest pinned = request;
  pinned.options.config_sink = [&entered, released](const CachedConfigPick&) {
    entered.set_value();
    released.wait();
  };
  Result<uint64_t> pinned_id = manager.Submit(pinned);
  ASSERT_TRUE(pinned_id.ok());
  const bool pinned_in_build =
      entered.get_future().wait_for(std::chrono::seconds(120)) ==
      std::future_status::ready;
  const size_t evicted_while_pinned = manager.EvictSharedPlanes(0);
  release.set_value();
  // Wait before any ASSERT can return: the sink refers to this frame.
  Result<SessionOutcome> pinned_outcome = manager.Wait(*pinned_id);
  ASSERT_TRUE(pinned_in_build);
  EXPECT_EQ(evicted_while_pinned, 0u);
  ASSERT_TRUE(pinned_outcome.ok());
  EXPECT_EQ(pinned_outcome->state, SessionState::kComplete);
  EXPECT_EQ(pinned_outcome->plane_generation, 5u);

  // The next session still rides the patched plane and corpus.
  Result<uint64_t> second = manager.Submit(request);
  ASSERT_TRUE(second.ok());
  Result<SessionOutcome> outcome = manager.Wait(*second);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, SessionState::kComplete);
  ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.plane_cache_hits, 2u);
  EXPECT_EQ(stats.corpus_cache_hits, 2u);
  EXPECT_EQ(stats.planes_evicted, 0u);

  // Idle now, so an unbounded eviction takes the live plane, and the
  // counter conserves: every eviction the calls returned is counted once.
  const size_t evicted = manager.EvictSharedPlanes(0);
  EXPECT_EQ(evicted, 1u);
  stats = manager.stats();
  EXPECT_EQ(stats.planes_evicted, evicted_while_pinned + evicted);
}

}  // namespace
}  // namespace mc
