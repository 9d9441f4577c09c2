// Output and counter identity of the top-k join engine: prints one line per
// joint run (dataset, scale, seed, blocker, k, requested q, shards per
// config) with the q actually used, whether the root ran as the planner's
// whole-table probe or under the hybrid prefilter, a CRC-32 over every
// config's sorted list (pair ids plus raw score bits), and every config's
// TopKJoinStats (events popped, pairs discovered, scored and pruned, tokens
// indexed, prefilter restarts). The inputs are built the way a debugging
// session builds them (text plane, type inference, attribute selection,
// config tree, corpus, a paper blocker's output as the exclusion set).
//
// The cells cover q = 1, 2, 3 and 4 (forced, or picked by the planner with
// q = 0), k = 100, 300 and 1000, planner roots reused from the whole-table
// probe, hybrid-prefilter roots, and forced four-shard runs. Every run uses
// four worker threads and a fixed shard count, so the counters do not
// depend on the machine's core count.
//
// A change to the join engine that must not change any list or counter is
// checked by diffing this program's output before and after the change:
//
//   build/bench/join_checksums > after.txt
//   diff bench/JOIN_CHECKSUMS.txt after.txt
//
// Joint time per dataset goes to stderr, so the standard output is
// byte-stable (MC_PLANNER_SEED must be unset).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "paper_blockers.h"
#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "table/profile.h"
#include "table/tokenized_table.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mc {
namespace bench {
namespace {

// One joint run over a dataset. `all_blockers` repeats it for every Table 2
// blocker of the dataset; otherwise only the first one is used.
struct Run {
  size_t k;
  size_t q;  // 0 = the planner picks q (and the hybrid prefilter).
  size_t shards_per_config;
  bool all_blockers;
};

// A generated dataset (name, scale, seed) and the runs made over it.
struct DatasetRuns {
  const char* name;
  double scale;
  uint64_t seed;
  std::vector<Run> runs;
};

std::string StatsField(const JointResult& result) {
  std::string field;
  char buffer[160];
  for (const ConfigJoinResult& config : result.per_config) {
    const TopKJoinStats& s = config.stats;
    std::snprintf(buffer, sizeof(buffer), "%s%zu/%zu/%zu/%zu/%zu/%zu",
                  field.empty() ? "" : ",", s.events_popped,
                  s.pairs_discovered, s.pairs_scored, s.pairs_pruned,
                  s.tokens_indexed, s.prefilter_restarts);
    field += buffer;
  }
  return field;
}

void PrintRuns(const DatasetRuns& cell) {
  Result<datagen::GeneratedDataset> generated =
      datagen::GenerateByName(cell.name, cell.scale, cell.seed);
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

  double joint_seconds = 0.0;
  for (const Run& run : cell.runs) {
    const size_t blocker_count = run.all_blockers ? blockers.size() : 1;
    for (size_t b = 0; b < blocker_count; ++b) {
      JointOptions options;
      options.k = run.k;
      options.q = run.q;
      options.num_threads = 4;
      options.shards_per_config = run.shards_per_config;
      options.exclude = &outputs[b];
      Stopwatch watch;
      const JointResult result = RunJointTopKJoins(corpus, tree, options);
      joint_seconds += watch.ElapsedSeconds();
      MC_CHECK(result.task_error.ok()) << result.task_error.ToString();
      MC_CHECK(!result.truncated);
      std::printf(
          "%s scale=%g seed=%llu %s k=%zu q=%zu shards=%zu q_used=%zu "
          "probe_root=%d hybrid_root=%d configs=%zu crc=%08x stats=%s\n",
          cell.name, cell.scale, static_cast<unsigned long long>(cell.seed),
          blockers[b].label.c_str(), run.k, run.q, run.shards_per_config,
          result.q_used, result.per_config[0].from_planner_probe ? 1 : 0,
          result.plan_decisions[0].hybrid ? 1 : 0, result.per_config.size(),
          JointChecksum(result), StatsField(result).c_str());
    }
  }
  std::fprintf(stderr, "%s scale=%g seed=%llu joint %.3fs\n", cell.name,
               cell.scale, static_cast<unsigned long long>(cell.seed),
               joint_seconds);
}

}  // namespace
}  // namespace bench
}  // namespace mc

int main() {
  using mc::bench::Run;
  const std::vector<mc::bench::DatasetRuns> cells = {
      {"A-G", 0.3, 0,
       {{100, 0, 1, true},
        {300, 0, 1, true},
        {1000, 0, 1, false},
        {100, 1, 1, false},
        {100, 2, 1, false},
        {100, 4, 4, false}}},
      {"W-A", 0.25, 0,
       {{100, 0, 1, true}, {100, 0, 4, false}, {100, 1, 1, false}}},
      {"M2", 0.02, 0, {{100, 0, 1, true}, {300, 1, 4, false}}},
      {"F-Z", 1.0, 0,
       {{1000, 0, 1, false}, {1000, 1, 1, false}, {1000, 2, 4, false}}},
      {"A-D", 1.0, 7, {{1000, 0, 1, false}}},
      {"M1", 0.1, 7, {{1000, 0, 1, false}}}};
  for (const mc::bench::DatasetRuns& cell : cells) mc::bench::PrintRuns(cell);
  return 0;
}
