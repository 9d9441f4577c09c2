// Tests for the unified arena memory subsystem (src/mem/): reserve/commit
// arenas with exact MemoryBudget accounting, the `mem/arena_reserve` fault
// point, MC_TOPOLOGY-style topology parsing, placement fallback recording,
// budget conservation across a corpus delta chain, and bit-identity of the
// joint scheduler under forced multi-node topologies (placement moves bytes
// and threads, never results).

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "joint/joint_executor.h"
#include "mem/arena.h"
#include "mem/arena_stats.h"
#include "mem/arena_vector.h"
#include "mem/per_node_replica.h"
#include "mem/topology.h"
#include "ssj/corpus.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "util/fault_injection.h"
#include "util/memory_budget.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mc {
namespace {

using mem::Arena;
using mem::ArenaOptions;
using mem::ArenaStatsRegistry;
using mem::SystemTopology;

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
// Topology detection and parsing.
// --------------------------------------------------------------------------

TEST(TopologyTest, ParseSpecValid) {
  SystemTopology topo;
  ASSERT_TRUE(SystemTopology::ParseSpec("nodes=2,cores_per_node=4", &topo));
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.num_cpus(), 8u);
  EXPECT_TRUE(topo.fake());
  ASSERT_EQ(topo.nodes().size(), 2u);
  EXPECT_EQ(topo.nodes()[0].cpus.size(), 4u);
  EXPECT_EQ(topo.nodes()[1].id, 1);
  EXPECT_EQ(topo.nodes()[1].cpus.front(), 4);
}

TEST(TopologyTest, ParseSpecMalformedLeavesOutputUntouched) {
  for (const char* bad :
       {"", "nodes=0,cores_per_node=4", "nodes=2", "cores_per_node=4",
        "nodes=2,cores_per_node=0", "nodes=-1,cores_per_node=2",
        "nodes=2,cores_per_node=4,bogus=1", "nodes=two,cores_per_node=4",
        "nodes=2;cores_per_node=4", "nodes=2000,cores_per_node=9999"}) {
    SystemTopology topo;  // Default: single node, one CPU.
    EXPECT_FALSE(SystemTopology::ParseSpec(bad, &topo)) << bad;
    EXPECT_EQ(topo.num_nodes(), 1u) << bad;
    EXPECT_FALSE(topo.fake()) << bad;
  }
}

TEST(TopologyTest, NodeOfSlicePartitionsContiguously) {
  SystemTopology topo;
  ASSERT_TRUE(SystemTopology::ParseSpec("nodes=3,cores_per_node=2", &topo));
  size_t previous = 0;
  std::vector<size_t> per_node(3, 0);
  for (size_t i = 0; i < 10; ++i) {
    const size_t node = topo.NodeOfSlice(i, 10);
    ASSERT_LT(node, 3u);
    EXPECT_GE(node, previous) << "monotone block partition";
    previous = node;
    ++per_node[node];
  }
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_GT(per_node[n], 0u) << "every node owns slices";
  }
  // Degenerate inputs stay in range.
  EXPECT_EQ(topo.NodeOfSlice(5, 0), 0u);
  EXPECT_EQ(topo.NodeOfSlice(99, 4), topo.NodeOfSlice(3, 4));
}

TEST(TopologyTest, DetectHonorsEnvOverride) {
  ASSERT_EQ(setenv("MC_TOPOLOGY", "nodes=4,cores_per_node=2", 1), 0);
  SystemTopology detected = SystemTopology::Detect();
  EXPECT_EQ(detected.num_nodes(), 4u);
  EXPECT_TRUE(detected.fake());
  // Malformed overrides fall through to the machine instead of failing.
  ASSERT_EQ(setenv("MC_TOPOLOGY", "nodes=banana", 1), 0);
  SystemTopology fallback = SystemTopology::Detect();
  EXPECT_GE(fallback.num_nodes(), 1u);
  EXPECT_FALSE(fallback.fake());
  ASSERT_EQ(unsetenv("MC_TOPOLOGY"), 0);
}

TEST(ArenaStatsTest, PlacedArenaShowsInPerNodeSnapshotAndFallbacks) {
  auto& registry = ArenaStatsRegistry::Instance();
  registry.ResetFallbacksForTest();
  const size_t base_fallbacks = registry.topology_fallbacks();
  {
    // A node-placed arena without bind (the fake-topology configuration)
    // must record its bytes under the node and count one fallback — the
    // placement was requested but not executed.
    Arena arena(ArenaOptions{
        .chunk_bytes = 4096, .numa_node = 1, .bind = false, .tag = "placed"});
    EXPECT_GT(registry.topology_fallbacks(), base_fallbacks);
    ASSERT_TRUE(arena.Reserve(4096));
    const mem::ArenaStatsSnapshot snapshot = registry.Snapshot();
    bool found = false;
    for (const mem::ArenaNodeStats& node : snapshot.per_node) {
      if (node.node == 1) {
        found = true;
        EXPECT_GE(node.reserved_bytes, 4096u);
        EXPECT_GE(node.arenas, 1u);
      }
    }
    EXPECT_TRUE(found) << "node-1 bytes visible in the snapshot";
    EXPECT_GE(snapshot.total_reserved_bytes, 4096u);
  }
}

TEST(PerNodeReplicaTest, FillAndClampedGet) {
  mem::PerNodeReplica<std::vector<int>> replicas;
  EXPECT_TRUE(replicas.empty());
  replicas.Fill(std::vector<int>{1, 2, 3}, 2);
  EXPECT_FALSE(replicas.empty());
  EXPECT_EQ(replicas.num_replicas(), 2u);
  EXPECT_EQ(replicas.Get(0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(replicas.Get(1), (std::vector<int>{1, 2, 3}));
  // Out-of-range nodes clamp instead of crashing (topology changed under a
  // long-lived structure).
  EXPECT_EQ(replicas.Get(7), replicas.Get(1));
}

// --------------------------------------------------------------------------
// ThreadPool topology mode.
// --------------------------------------------------------------------------

TEST(TopologyThreadPoolTest, SubmitOnNodeRunsEverythingUnderFakeTopology) {
  SystemTopology topo;
  ASSERT_TRUE(SystemTopology::ParseSpec("nodes=2,cores_per_node=2", &topo));
  SystemTopology::SetForTest(topo);
  {
    ThreadPool pool(4, ThreadPoolOptions{.name_prefix = "mc-test",
                                         .topology_aware = true});
    EXPECT_TRUE(pool.topology_aware());
    EXPECT_FALSE(pool.pinned()) << "fake topologies never pin";
    EXPECT_EQ(pool.NodeOfWorker(0), 0);
    EXPECT_EQ(pool.NodeOfWorker(3), 1);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
      pool.SubmitOnNode(i % 2, [&ran] { ++ran; });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), 100);
  }
  SystemTopology::ResetForTest();
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

// --------------------------------------------------------------------------
// Placement never changes results: the full joint execution is bit-identical
// between the machine's real topology and a forced multi-node topology, with
// and without pinning, at 1 and 4 threads.
// --------------------------------------------------------------------------

void ExpectIdenticalJoint(const JointResult& got, const JointResult& ref,
                          const std::string& label) {
  ASSERT_EQ(got.per_config.size(), ref.per_config.size()) << label;
  for (size_t i = 0; i < got.per_config.size(); ++i) {
    const std::vector<ScoredPair>& g = got.per_config[i].topk;
    const std::vector<ScoredPair>& r = ref.per_config[i].topk;
    ASSERT_EQ(g.size(), r.size()) << label << " node " << i;
    for (size_t j = 0; j < g.size(); ++j) {
      EXPECT_EQ(g[j].pair, r[j].pair) << label << " node " << i << " rank "
                                      << j;
      EXPECT_EQ(g[j].score, r[j].score) << label << " node " << i << " rank "
                                        << j;
    }
  }
}

class TopologyPlacementIdentityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SystemTopology::ResetForTest();
    unsetenv("MC_PIN_THREADS");
  }
};

TEST_F(TopologyPlacementIdentityTest, PinnedAndUnpinnedMatchAcrossNodes) {
  Rng rng(77);
  Table a = ThreeColumnTable(rng, 60);
  Table b = ThreeColumnTable(rng, 60);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 2};
  attrs.avg_len_b = {2, 1, 2};
  ConfigTree tree = GenerateConfigTree(attrs);

  JointOptions base_options;
  base_options.k = 25;
  base_options.q = 1;
  base_options.num_threads = 1;

  // Reference: whatever topology the machine really has, unpinned.
  SystemTopology::ResetForTest();
  JointResult ref = RunJointTopKJoins(corpus, tree, base_options);
  ASSERT_FALSE(ref.truncated);
  ASSERT_GT(ref.per_config[0].topk.size(), 0u);

  for (const char* spec :
       {"nodes=1,cores_per_node=4", "nodes=2,cores_per_node=2",
        "nodes=4,cores_per_node=1"}) {
    SystemTopology topo;
    ASSERT_TRUE(SystemTopology::ParseSpec(spec, &topo));
    for (const bool pin : {false, true}) {
      // MC_PIN_THREADS=1 demands pinning; on the fake topology it degrades
      // to a recorded fallback — either way results must not move.
      setenv("MC_PIN_THREADS", pin ? "1" : "0", 1);
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SystemTopology::SetForTest(topo);
        JointOptions options = base_options;
        options.num_threads = threads;
        JointResult got = RunJointTopKJoins(corpus, tree, options);
        ASSERT_FALSE(got.truncated);
        ExpectIdenticalJoint(got, ref,
                             std::string(spec) +
                                 " pin=" + std::to_string(pin) +
                                 " threads=" + std::to_string(threads));
        SystemTopology::ResetForTest();
      }
    }
    unsetenv("MC_PIN_THREADS");
  }
}

}  // namespace
}  // namespace mc
