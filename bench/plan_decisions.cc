// Decision identity of the cost-based join planner: prints one line per
// (dataset, scale, k, seed, blocker) cell with every JoinPlan decision
// field — q, shard hint, hybrid switch, threshold, mode, the extrapolated
// volumes, both k-th estimates and the chosen q's modeled cost — with the
// doubles in hex-float so equal lines mean equal bits. The root view and
// the exclusion set are built the way a debugging session builds them
// (text plane, type inference, attribute selection, config tree, corpus).
//
// A change to the planner that must not change any decision is checked by
// diffing this program's output before and after the change:
//
//   build/bench/plan_decisions > after.txt
//   diff bench/PLAN_DECISIONS.txt after.txt
//
// The shard hint is capped at 4 so the output does not depend on the
// machine's core count. Planner time per dataset goes to stderr, so the
// standard output is byte-stable.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "paper_blockers.h"
#include "config/config_generator.h"
#include "datagen/generator.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "table/profile.h"
#include "table/tokenized_table.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mc {
namespace bench {
namespace {

struct Cell {
  const char* name;
  double scale;
  std::vector<size_t> ks;
};

void PrintDecisions(const Cell& cell, uint64_t seed) {
  Result<datagen::GeneratedDataset> generated =
      datagen::GenerateByName(cell.name, cell.scale, seed);
  MC_CHECK(generated.ok()) << generated.status().ToString();
  datagen::GeneratedDataset& dataset = generated.value();
  const std::vector<PaperBlocker> blockers =
      PaperBlockersFor(cell.name, dataset.table_a.schema());
  std::vector<CandidateSet> outputs;
  for (const PaperBlocker& blocker : blockers) {
    outputs.push_back(blocker.blocker->Run(dataset.table_a, dataset.table_b));
  }

  Table& table_a = dataset.table_a;
  Table& table_b = dataset.table_b;
  TokenizedTable::BuildAndAttach(table_a, table_b);
  table_a.SetSchema(InferAttributeTypes(table_a));
  table_b.SetSchema(table_a.schema());
  const ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes =
      SelectPromisingAttributes(table_a, table_b, config_options);
  MC_CHECK(attributes.ok()) << attributes.status().ToString();
  const ConfigTree tree = GenerateConfigTree(*attributes, config_options);
  const SsjCorpus corpus =
      SsjCorpus::Build(table_a, table_b, attributes->columns);
  const ConfigView root = corpus.MakeConfigView(tree.nodes[0].mask);

  double planner_seconds = 0.0;
  for (size_t k : cell.ks) {
    for (size_t b = 0; b < blockers.size(); ++b) {
      PlannerOptions options;
      options.k = k;
      options.exclude = &outputs[b];
      options.max_shards = 4;
      Stopwatch watch;
      const JoinPlan plan = PlanTopKJoin(corpus, root, options);
      planner_seconds += watch.ElapsedSeconds();
      MC_CHECK(!plan.truncated);
      std::printf(
          "%s scale=%g k=%zu seed=%llu %s rate=%zu q=%zu shards=%zu "
          "hybrid=%d tau=%a mode=%s est_events=%llu est_scored=%llu "
          "kth=%a half_kth=%a cost=%a\n",
          cell.name, cell.scale, k, static_cast<unsigned long long>(seed),
          blockers[b].label.c_str(), plan.sample_rate, plan.q, plan.shards,
          plan.hybrid ? 1 : 0, plan.prefilter_threshold,
          JoinExecModeName(plan.mode),
          static_cast<unsigned long long>(plan.est_events),
          static_cast<unsigned long long>(plan.est_scored), plan.sampled_kth,
          plan.half_sample_kth, plan.cost_per_q[plan.q - 1]);
    }
  }
  std::fprintf(stderr, "%s scale=%g seed=%llu planner %.3fs\n", cell.name,
               cell.scale, static_cast<unsigned long long>(seed),
               planner_seconds);
}

}  // namespace
}  // namespace bench
}  // namespace mc

int main() {
  const std::vector<mc::bench::Cell> cells = {
      {"A-G", 0.3, {100, 300}}, {"A-G", 1.0, {1000}}, {"W-A", 0.25, {100}},
      {"W-A", 0.5, {1000}},     {"M2", 0.02, {100}},  {"A-D", 1.0, {1000}},
      {"F-Z", 1.0, {1000}},     {"M1", 0.1, {1000}}};
  for (const mc::bench::Cell& cell : cells) {
    for (uint64_t seed : {0, 7}) mc::bench::PrintDecisions(cell, seed);
  }
  return 0;
}
