// Tests for the arena memory subsystem (src/mem/): reserve/commit arenas
// with exact MemoryBudget accounting, the `mem/arena_reserve` fault point,
// budget conservation across a corpus delta chain, and the text plane's
// charge for its lazy q-gram columns.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/standard_blockers.h"
#include "mem/arena.h"
#include "mem/arena_vector.h"
#include "ssj/corpus.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "table/tokenized_table.h"
#include "util/fault_injection.h"
#include "util/memory_budget.h"
#include "util/random.h"

namespace mc {
namespace {

using mem::Arena;
using mem::ArenaOptions;

// --------------------------------------------------------------------------
// Arena: reserve/commit, reset reuse, exact budget accounting.
// --------------------------------------------------------------------------

TEST(ArenaTest, ReserveCommitResetReuse) {
  Arena arena(ArenaOptions{.chunk_bytes = 4096, .tag = "test"});
  EXPECT_EQ(arena.ReservedBytes(), 0u);
  EXPECT_EQ(arena.UsedBytes(), 0u);

  ASSERT_TRUE(arena.Reserve(1000));
  const size_t reserved = arena.ReservedBytes();
  EXPECT_GE(reserved, 1000u);
  EXPECT_EQ(reserved % 4096, 0u) << "chunks are page-rounded";

  void* first = arena.Allocate(100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(arena.UsedBytes(), 100u);
  void* second = arena.Allocate(100);
  // The bump pointer aligns each allocation start to the cache line.
  EXPECT_EQ(second, static_cast<std::byte*>(first) + Arena::AlignedSize(100));
  EXPECT_EQ(arena.UsedBytes(), Arena::AlignedSize(100) + 100);
  EXPECT_EQ(arena.ReservedBytes(), reserved) << "no growth within reserve";

  // Reset rewinds the bump pointer but keeps the memory and its charge:
  // the next Allocate hands back the same storage.
  arena.Reset();
  EXPECT_EQ(arena.UsedBytes(), 0u);
  EXPECT_EQ(arena.ReservedBytes(), reserved);
  void* reused = arena.Allocate(100);
  EXPECT_EQ(reused, first);
}

TEST(ArenaTest, ChargesBudgetExactlyWhatItReserves) {
  MemoryBudget budget;
  {
    Arena arena(ArenaOptions{.chunk_bytes = 4096, .budget = &budget});
    ASSERT_TRUE(arena.Reserve(5000));
    EXPECT_EQ(budget.used(), arena.ReservedBytes());

    // Growth through Allocate charges chunk by chunk; the invariant holds
    // at every step, not just at the end.
    for (int i = 0; i < 64; ++i) {
      arena.Allocate(1024);
      EXPECT_EQ(budget.used(), arena.ReservedBytes());
    }
    EXPECT_GT(arena.ReservedBytes(), 5000u) << "growth happened";
  }
  EXPECT_EQ(budget.used(), 0u) << "destruction releases the exact charge";
  EXPECT_EQ(budget.release_violations(), 0u);
}

TEST(ArenaTest, BudgetRefusalLeavesNothingCharged) {
  MemoryBudget budget(/*limit_bytes=*/8192);
  Arena arena(ArenaOptions{.chunk_bytes = 4096, .budget = &budget});
  EXPECT_FALSE(arena.Reserve(1 << 20));
  EXPECT_EQ(arena.ReservedBytes(), 0u);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.rejected(), 1u);

  // A fitting reserve still works after the refusal.
  EXPECT_TRUE(arena.Reserve(100));
  EXPECT_EQ(budget.used(), arena.ReservedBytes());
}

TEST(ArenaTest, AllocateGrowthRefusalThrowsAndConservesBudget) {
  MemoryBudget budget(/*limit_bytes=*/8192);
  Arena arena(ArenaOptions{.chunk_bytes = 4096, .budget = &budget});
  ASSERT_TRUE(arena.Reserve(4096));
  const size_t charged = budget.used();
  arena.Allocate(4096 - Arena::kAlign);
  // The next chunk would blow the limit: Allocate must throw and leave the
  // arena and budget exactly as they were.
  EXPECT_THROW(arena.Allocate(64 << 10), std::bad_alloc);
  EXPECT_EQ(budget.used(), charged);
  EXPECT_EQ(budget.used(), arena.ReservedBytes());
}

TEST(ArenaTest, ReserveFaultPointRefusesWithoutCharging) {
  MemoryBudget budget;
  Arena arena(ArenaOptions{.budget = &budget});
  {
    ScopedFaultArm arm("mem/arena_reserve", FaultKind::kError);
    EXPECT_FALSE(arena.Reserve(4096));
    EXPECT_EQ(budget.used(), 0u);
    EXPECT_EQ(arena.ReservedBytes(), 0u);
  }
  EXPECT_TRUE(arena.Reserve(4096));
  EXPECT_EQ(budget.used(), arena.ReservedBytes());
}

TEST(ArenaTest, ZeroReserveIsFreeAndTrue) {
  MemoryBudget budget;
  Arena arena(ArenaOptions{.budget = &budget});
  EXPECT_TRUE(arena.Reserve(0));
  EXPECT_EQ(arena.ReservedBytes(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(ArenaVectorTest, ExactSizingLandsInArena) {
  Arena arena(ArenaOptions{.chunk_bytes = 4096});
  ASSERT_TRUE(arena.Reserve(Arena::AlignedSize(100 * sizeof(uint32_t))));
  mem::ArenaVector<uint32_t> values{mem::ArenaAllocator<uint32_t>(&arena)};
  values.reserve(100);
  for (uint32_t i = 0; i < 100; ++i) values.push_back(i);
  EXPECT_GE(arena.UsedBytes(), 100 * sizeof(uint32_t));
  EXPECT_EQ(arena.ReservedBytes(), 4096u) << "no growth past the reserve";
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
}

// --------------------------------------------------------------------------
// Budget conservation across a corpus delta chain: at every generation the
// budget's usage equals the live corpora's reserved bytes, exactly.
// --------------------------------------------------------------------------

Table ThreeColumnTable(Rng& rng, size_t rows) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"desc", AttributeType::kString}});
  Table table(schema);
  auto word = [&](const char* prefix, size_t vocab) {
    return std::string(prefix) + std::to_string(rng.NextZipf(vocab, 0.7));
  };
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow({word("n", 30) + " " + word("n", 25), word("c", 10),
                  word("d", 40) + " " + word("d", 40)});
  }
  return table;
}

TEST(BudgetConservationTest, ChargeEqualsReservationAcrossDeltaChain) {
  Rng rng(91);
  Table table_a = ThreeColumnTable(rng, 50);
  Table table_b = ThreeColumnTable(rng, 55);
  const std::vector<size_t> columns = {0, 1, 2};

  MemoryBudget budget;
  CorpusBuildOptions options;
  options.num_threads = 2;
  options.memory_budget = &budget;

  auto base = std::make_unique<SsjCorpus>(
      SsjCorpus::Build(table_a, table_b, columns, options));
  ASSERT_FALSE(base->truncated());
  EXPECT_GT(base->MemoryBytes(), 0u);
  EXPECT_EQ(budget.used(), base->MemoryBytes());

  for (size_t generation = 1; generation <= 4; ++generation) {
    TableDelta delta;
    delta.side = static_cast<uint8_t>(generation % 2);
    Table& target = delta.side == 0 ? table_a : table_b;
    TableDelta::RowEdit edit;
    edit.row = static_cast<uint32_t>(generation % target.num_rows());
    for (size_t c = 0; c < target.num_columns(); ++c) {
      edit.values.emplace_back(target.Value(edit.row, c));
    }
    edit.values[0] += " gen" + std::to_string(generation);
    delta.mutated.push_back(std::move(edit));
    const size_t base_rows = target.num_rows();
    ASSERT_TRUE(ApplyDeltaToTable(target, delta).ok());
    Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
    ASSERT_TRUE(rows.ok());

    std::optional<SsjCorpus> patched = SsjCorpus::ApplyDelta(
        *base, table_a, table_b, columns, *rows, options);
    ASSERT_TRUE(patched.has_value()) << "generation " << generation;
    // Both generations alive: the budget holds exactly their sum.
    EXPECT_EQ(budget.used(), base->MemoryBytes() + patched->MemoryBytes())
        << "generation " << generation;
    base = std::make_unique<SsjCorpus>(*std::move(patched));
    // Old generation released: the charge follows the live set exactly.
    EXPECT_EQ(budget.used(), base->MemoryBytes())
        << "generation " << generation;
  }
  base.reset();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.release_violations(), 0u);
}

TEST(BudgetConservationTest, RefusedDeltaLeavesBudgetAndBaseIntact) {
  Rng rng(92);
  Table table_a = ThreeColumnTable(rng, 40);
  Table table_b = ThreeColumnTable(rng, 40);
  const std::vector<size_t> columns = {0, 1, 2};

  MemoryBudget budget;
  CorpusBuildOptions options;
  options.memory_budget = &budget;
  SsjCorpus base = SsjCorpus::Build(table_a, table_b, columns, options);
  ASSERT_FALSE(base.truncated());
  const size_t charged = budget.used();
  ASSERT_EQ(charged, base.MemoryBytes());

  TableDelta delta;
  delta.side = 0;
  std::vector<std::string> appended;
  for (size_t c = 0; c < table_a.num_columns(); ++c) {
    appended.emplace_back(table_a.Value(0, c));
  }
  delta.appended.push_back(std::move(appended));
  const size_t base_rows = table_a.num_rows();
  ASSERT_TRUE(ApplyDeltaToTable(table_a, delta).ok());
  Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
  ASSERT_TRUE(rows.ok());

  {
    ScopedFaultArm arm("mem/arena_reserve", FaultKind::kError);
    std::optional<SsjCorpus> patched = SsjCorpus::ApplyDelta(
        base, table_a, table_b, columns, *rows, options);
    EXPECT_FALSE(patched.has_value()) << "refused reserve rejects the delta";
  }
  EXPECT_EQ(budget.used(), charged) << "failed patch unwinds its charges";
  EXPECT_EQ(base.MemoryBytes(), charged) << "base generation untouched";
}

TEST(BudgetConservationTest, QGramColumnsChargeThePlaneBudget) {
  Rng rng(93);
  Table table_a = ThreeColumnTable(rng, 40);
  Table table_b = ThreeColumnTable(rng, 45);
  MemoryBudget budget;
  TextPlaneBuildOptions options;
  options.memory_budget = &budget;
  auto plane = TokenizedTable::Build(table_a, table_b, options);
  ASSERT_FALSE(plane->truncated());
  const size_t arena_bytes = plane->MemoryBytes();
  ASSERT_EQ(budget.used(), arena_bytes);

  const TokenizedTable::QGramColumn* grams3 =
      plane->QGramsForColumn(table_a, table_b, 3, 0);
  ASSERT_NE(grams3, nullptr);
  EXPECT_GT(grams3->MemoryBytes(), 0u);
  EXPECT_EQ(budget.used(), arena_bytes + grams3->MemoryBytes());
  // A cached column is not charged twice; another (q, column) is.
  EXPECT_EQ(plane->QGramsForColumn(table_a, table_b, 3, 0), grams3);
  const TokenizedTable::QGramColumn* grams2 =
      plane->QGramsForColumn(table_a, table_b, 2, 2);
  ASSERT_NE(grams2, nullptr);
  EXPECT_EQ(budget.used(),
            arena_bytes + grams3->MemoryBytes() + grams2->MemoryBytes());

  plane.reset();
  EXPECT_EQ(budget.used(), 0u) << "the columns are released with the plane";
  EXPECT_EQ(budget.release_violations(), 0u);
}

TEST(BudgetConservationTest, RefusedQGramChargeFallsBackToStrings) {
  Rng rng(94);
  Table table_a = ThreeColumnTable(rng, 40);
  Table table_b = ThreeColumnTable(rng, 45);
  size_t arena_bytes = 0;
  {
    MemoryBudget probe;
    TextPlaneBuildOptions options;
    options.memory_budget = &probe;
    arena_bytes = TokenizedTable::Build(table_a, table_b, options)
                      ->MemoryBytes();
  }
  // Room for the plane's arena, not for a q-gram column.
  MemoryBudget budget(arena_bytes + 64);
  TextPlaneBuildOptions options;
  options.memory_budget = &budget;
  Table span_a = table_a;
  Table span_b = table_b;
  auto plane = TokenizedTable::BuildAndAttach(span_a, span_b, options);
  ASSERT_EQ(SharedTextPlane(span_a, span_b), plane.get());
  EXPECT_EQ(plane->QGramsForColumn(span_a, span_b, 3, 0), nullptr);
  EXPECT_EQ(budget.used(), arena_bytes) << "a refused column charges nothing";
  EXPECT_GT(budget.rejected(), 0u);

  SimilarityBlocker blocker(0, TokenizerSpec::QGram(3), SetMeasure::kJaccard,
                            0.3);
  EXPECT_EQ(blocker.Run(span_a, span_b).SortedPairs(),
            blocker.Run(table_a, table_b).SortedPairs());
  EXPECT_EQ(budget.used(), arena_bytes);

  // The per-pair path asks for the column on every pair; the refusal is
  // remembered, so the column is neither rebuilt nor charged again.
  for (size_t r = 0; r < span_a.num_rows(); ++r) {
    for (size_t s = 0; s < span_b.num_rows(); ++s) {
      EXPECT_EQ(blocker.KeepsPair(span_a, r, span_b, s),
                blocker.KeepsPair(table_a, r, table_b, s));
    }
  }
  EXPECT_EQ(budget.rejected(), 1u);
  EXPECT_EQ(budget.used(), arena_bytes);
}

}  // namespace
}  // namespace mc
