// The joint executor's per-config kernel choice (ConfigPlanDecision::kernel):
// with a plan, a config runs the count-all kernel when its exact modeled
// cost is below the event-join estimate. The lists must not depend on the
// choice: every run is compared with a fixed-q run, which has no plan and
// so runs the event kernel everywhere.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "paper_blockers.h"
#include "blocking/candidate_set.h"
#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/profile.h"
#include "table/table.h"
#include "table/tokenized_table.h"

namespace mc {
namespace {

void ExpectSameLists(const JointResult& got, const JointResult& want,
                     const std::string& label) {
  ASSERT_EQ(got.per_config.size(), want.per_config.size()) << label;
  for (size_t i = 0; i < want.per_config.size(); ++i) {
    const auto& g = got.per_config[i].topk;
    const auto& w = want.per_config[i].topk;
    ASSERT_EQ(g.size(), w.size()) << label << " config " << i;
    for (size_t e = 0; e < w.size(); ++e) {
      EXPECT_EQ(g[e].pair, w[e].pair) << label << " config " << i;
      EXPECT_EQ(g[e].score, w[e].score) << label << " config " << i;
    }
  }
}

void ExpectDecisionsMirrorResults(const JointResult& result,
                                  const std::string& label) {
  ASSERT_EQ(result.plan_decisions.size(), result.per_config.size()) << label;
  for (size_t i = 0; i < result.per_config.size(); ++i) {
    EXPECT_EQ(result.plan_decisions[i].kernel, result.per_config[i].kernel)
        << label << " config " << i;
    if (result.per_config[i].kernel == JoinKernel::kCountAll) {
      EXPECT_EQ(result.per_config[i].stats.events_popped, 0u) << label;
      EXPECT_GT(result.per_config[i].stats.overlap_increments, 0u) << label;
    } else {
      EXPECT_EQ(result.per_config[i].stats.overlap_increments, 0u) << label;
    }
  }
}

// A-G at 0.3 with the OL blocker, built as a debugging session builds it:
// the root view is dense (nearly every pair shares a token) and the plan's
// whole-table probe is the root join.
TEST(JointKernelTest, DenseCorpusChildrenRunCountAll) {
  Result<datagen::GeneratedDataset> generated =
      datagen::GenerateByName("A-G", 0.3, 0);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  Table& table_a = generated->table_a;
  Table& table_b = generated->table_b;
  const std::vector<bench::PaperBlocker> blockers =
      bench::PaperBlockersFor("A-G", table_a.schema());
  ASSERT_EQ(blockers[0].label, "OL");
  const CandidateSet exclude = blockers[0].blocker->Run(table_a, table_b);
  TokenizedTable::BuildAndAttach(table_a, table_b);
  table_a.SetSchema(InferAttributeTypes(table_a));
  table_b.SetSchema(table_a.schema());
  Result<PromisingAttributes> attributes =
      SelectPromisingAttributes(table_a, table_b);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const ConfigTree tree = GenerateConfigTree(*attributes);
  ASSERT_GT(tree.size(), 1u);
  const SsjCorpus corpus =
      SsjCorpus::Build(table_a, table_b, attributes->columns);

  JointOptions planned;
  planned.k = 100;
  planned.q = 0;
  planned.num_threads = 1;
  planned.exclude = &exclude;
  const JointResult fresh = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(fresh.task_error.ok()) << fresh.task_error.ToString();
  ASSERT_EQ(fresh.plan.sample_rate, 1u);
  ASSERT_TRUE(fresh.per_config[0].from_planner_probe);
  EXPECT_EQ(fresh.per_config[0].kernel, JoinKernel::kEvent);
  for (size_t i = 1; i < tree.size(); ++i) {
    EXPECT_EQ(fresh.per_config[i].kernel, JoinKernel::kCountAll)
        << "config " << i;
  }
  ExpectDecisionsMirrorResults(fresh, "fresh");

  // A cached plan joins the root afresh; at sample rate 1 the plan's cost
  // is the root join's measured cost, so every child chooses as before.
  JointOptions cached = planned;
  cached.cached_plan = &fresh.plan;
  const JointResult replay = RunJointTopKJoins(corpus, tree, cached);
  ASSERT_TRUE(replay.plan_from_cache);
  for (size_t i = 1; i < tree.size(); ++i) {
    EXPECT_EQ(replay.per_config[i].kernel, fresh.per_config[i].kernel)
        << "config " << i;
  }
  ExpectDecisionsMirrorResults(replay, "cached plan");
  ExpectSameLists(replay, fresh, "cached plan vs fresh");

  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::string label = std::to_string(threads) + " threads";
    JointOptions forced_event = planned;
    forced_event.q = fresh.plan.q;
    forced_event.num_threads = threads;
    const JointResult event = RunJointTopKJoins(corpus, tree, forced_event);
    for (const ConfigJoinResult& config : event.per_config) {
      EXPECT_EQ(config.kernel, JoinKernel::kEvent) << label;
    }
    ExpectSameLists(fresh, event, label + " planned vs forced event");
    JointOptions threaded = planned;
    threaded.num_threads = threads;
    ExpectSameLists(RunJointTopKJoins(corpus, tree, threaded), event,
                    label + " planned vs forced event, same threads");
  }
}

// Shaped like M2: every row has a near-duplicate partner, so the k-th score
// is high and the event engine stops after a prefix token or two of rare
// (row-specific) tokens, while every attribute also holds a token from a
// small vocabulary, so count-all would add up hundreds of overlaps per
// row in every config. Over 511 table-A rows the plan is sampled, so the
// root runs the event kernel, and no config's count-all cost comes near
// what the root measured.
std::pair<Table, Table> SparseWorkTables(size_t rows) {
  Schema schema({{"name", AttributeType::kString},
                 {"code", AttributeType::kString}});
  Table a(schema), b(schema);
  for (size_t i = 0; i < rows; ++i) {
    const std::string id = std::to_string(i);
    const std::string common = std::to_string(i % 5);
    const std::string name = "n" + id + " m" + id + " p" + id + " w" + common;
    const std::string group = std::to_string(i % 7);
    const std::string code = "c" + group + " d" + common;
    a.AddRow({name + " x" + id, code});
    b.AddRow({name + " y" + id, code});
  }
  return {std::move(a), std::move(b)};
}

TEST(JointKernelTest, SparseWorkCorpusKeepsEventKernel) {
  auto [a, b] = SparseWorkTables(1200);
  const SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  PromisingAttributes attrs;
  attrs.columns = {0, 1};
  attrs.e_scores = {0.9, 0.3};
  attrs.avg_len_a = {4, 2};
  attrs.avg_len_b = {4, 2};
  const ConfigTree tree = GenerateConfigTree(attrs);
  ASSERT_GT(tree.size(), 1u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::string label = std::to_string(threads) + " threads";
    JointOptions planned;
    planned.k = 20;
    planned.q = 0;
    planned.num_threads = threads;
    const JointResult fresh = RunJointTopKJoins(corpus, tree, planned);
    ASSERT_TRUE(fresh.task_error.ok()) << fresh.task_error.ToString();
    ASSERT_GT(fresh.plan.sample_rate, 1u) << label;
    for (const ConfigJoinResult& config : fresh.per_config) {
      EXPECT_EQ(config.kernel, JoinKernel::kEvent) << label;
    }
    ExpectDecisionsMirrorResults(fresh, label);
    JointOptions forced_event = planned;
    forced_event.q = fresh.plan.q;
    ExpectSameLists(fresh, RunJointTopKJoins(corpus, tree, forced_event),
                    label + " planned vs forced event");
  }
}

}  // namespace
}  // namespace mc
