// Microbenchmark for the joint executor's two-level scheduler, the
// zero-copy config views, and the block-parallel corpus build (the perf-PR
// counterpart of micro_ssj for the joint layer).
//
// `--json=PATH` runs a fixed workload (Amazon-Google-style by default) and
// emits a machine-readable stage-timing record (corpus_build / view_build /
// joint_execute / end_to_end). bench/BENCH_joint.json archives the
// before/after pair of the two-level scheduler change; its "before" record
// came from a scheduler that has since been removed, so only the "after"
// record can be reproduced with this binary.
//
// Knobs: --engine=LABEL, --dataset=amazon_google|music, --scale=F (default
// 1.0), --reps=N (default 3), --k=N (default 1000), --threads=N (default
// 8), --build-threads=N (default: --threads), --cache-shards=N (default 0
// = auto), --q=N (default 1), --reuse-trigger=F (default 20).
//
// The record also re-runs the joint phase single-threaded and reports
// whether the parallel output is bit-identical (the determinism contract
// of docs/algorithms.md).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "simd/kernels.h"
#include "ssj/corpus.h"
#include "table/profile.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mc {
namespace {

struct BenchConfig {
  std::string path;
  std::string engine = "unspecified";
  // Default workload: the Amazon-Google-style generator — long description
  // attributes, the regime the joint executor's reuse machinery targets
  // (paper §6.5 reports its largest joint-vs-independent gains there).
  std::string dataset = "amazon_google";
  double scale = 1.0;
  size_t reps = 3;
  size_t k = 1000;
  size_t threads = 8;
  size_t build_threads = 0;  // 0: same as threads.
  size_t cache_shards = 0;
  size_t q = 1;
  double reuse_trigger = 20.0;  // Paper's t; the A-G descriptions exceed it.
};

struct StageTiming {
  double best = 0.0;
  double total = 0.0;
  void Record(size_t rep, double seconds) {
    total += seconds;
    if (rep == 0 || seconds < best) best = seconds;
  }
  double mean(size_t reps) const {
    return total / static_cast<double>(reps);
  }
};

JointOptions MakeJointOptions(const BenchConfig& config) {
  JointOptions options;
  options.k = config.k;
  options.q = config.q;
  options.num_threads = config.threads;
  options.overlap_cache_shards = config.cache_shards;
  // Product default: the paper's t = 20 trigger (music tuples are shorter,
  // so the overlap cache stays off). --reuse-trigger=0 forces it on for
  // cache-path sweeps.
  options.reuse_min_avg_tokens = config.reuse_trigger;
  return options;
}

int RunJsonBench(const BenchConfig& config) {
  datagen::GeneratedDataset dataset =
      config.dataset == "music"
          ? datagen::GenerateMusic(
                datagen::ScaleDims(datagen::kDimsMusic1, config.scale))
          : datagen::GenerateAmazonGoogle(
                datagen::ScaleDims(datagen::kDimsAmazonGoogle, config.scale));
  Table table_a = dataset.table_a;
  Table table_b = dataset.table_b;
  table_a.SetSchema(InferAttributeTypes(table_a));
  table_b.SetSchema(table_a.schema());

  Result<PromisingAttributes> attributes =
      SelectPromisingAttributes(table_a, table_b);
  MC_CHECK(attributes.ok()) << attributes.status().ToString();
  ConfigTree tree = GenerateConfigTree(*attributes);

  const size_t build_threads =
      config.build_threads != 0 ? config.build_threads : config.threads;
  CorpusBuildOptions build_options;
  build_options.num_threads = build_threads;

  StageTiming corpus_stage, view_stage, joint_stage, end_to_end_stage;
  JointResult last_result;
  size_t zero_copy_rows = 0, materialized_rows = 0;
  for (size_t rep = 0; rep < config.reps; ++rep) {
    Stopwatch end_to_end;

    Stopwatch corpus_watch;
    SsjCorpus corpus =
        SsjCorpus::Build(table_a, table_b, attributes->columns, build_options);
    corpus_stage.Record(rep, corpus_watch.ElapsedSeconds());

    // View construction for every config, timed in isolation (the executor
    // also builds views internally; this stage isolates the zero-copy win).
    Stopwatch view_watch;
    zero_copy_rows = materialized_rows = 0;
    for (const ConfigNode& node : tree.nodes) {
      ConfigView view = corpus.MakeConfigView(node.mask);
      zero_copy_rows += view.zero_copy_rows();
      materialized_rows += view.materialized_rows();
    }
    view_stage.Record(rep, view_watch.ElapsedSeconds());

    Stopwatch joint_watch;
    JointResult result = RunJointTopKJoins(corpus, tree, MakeJointOptions(config));
    joint_stage.Record(rep, joint_watch.ElapsedSeconds());
    MC_CHECK(result.task_error.ok()) << result.task_error.ToString();
    MC_CHECK(!result.truncated);

    end_to_end_stage.Record(rep, end_to_end.ElapsedSeconds());
    last_result = std::move(result);
  }
  const uint32_t checksum = bench::JointChecksum(last_result);

  // Determinism spot-check: the parallel output must be bit-identical to a
  // single-threaded run over the same corpus.
  bool identical_to_single_thread = false;
  {
    SsjCorpus corpus =
        SsjCorpus::Build(table_a, table_b, attributes->columns, build_options);
    JointOptions single = MakeJointOptions(config);
    single.num_threads = 1;
    JointResult reference = RunJointTopKJoins(corpus, tree, single);
    identical_to_single_thread = bench::JointChecksum(reference) == checksum;
  }

  size_t pairs = 0, cache_hits = 0, cache_misses = 0, seeded = 0;
  size_t events_popped = 0, pairs_scored = 0;
  for (const ConfigJoinResult& per_config : last_result.per_config) {
    pairs += per_config.topk.size();
    cache_hits += per_config.cache_hits;
    cache_misses += per_config.cache_misses;
    seeded += per_config.seeded_from_parent ? 1 : 0;
    events_popped += per_config.stats.events_popped;
    pairs_scored += per_config.stats.pairs_scored;
  }

  std::ofstream out(config.path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", config.path.c_str());
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.KV("schema_version", uint64_t{1});
  json.KV("benchmark", "micro_joint_executor");
  json.KV("engine", config.engine);
  json.Key("workload");
  json.BeginObject();
  // Machine context: every record names the core budget and the SIMD level
  // it ran under, so archived numbers are comparable across runners.
  json.KV("cpu_cores",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.KV("simd_level", simd::SimdLevelName(simd::ActiveSimdLevel()));
  json.KV("dataset", config.dataset);
  json.KV("scale", config.scale);
  json.KV("rows_a", uint64_t{table_a.num_rows()});
  json.KV("rows_b", uint64_t{table_b.num_rows()});
  json.KV("configs", uint64_t{tree.size()});
  json.KV("k", uint64_t{config.k});
  json.KV("q", uint64_t{config.q});
  json.KV("threads", uint64_t{config.threads});
  json.KV("build_threads", uint64_t{build_threads});
  json.KV("reuse_trigger", config.reuse_trigger);
  json.KV("repetitions", uint64_t{config.reps});
  json.EndObject();
  json.Key("results");
  json.BeginArray();
  auto stage = [&](const char* name, const StageTiming& timing) {
    json.BeginObject();
    json.KV("name", name);
    json.KV("best_seconds", timing.best);
    json.KV("mean_seconds", timing.mean(config.reps));
    json.EndObject();
  };
  stage("corpus_build", corpus_stage);
  stage("view_build", view_stage);
  stage("joint_execute", joint_stage);
  stage("end_to_end", end_to_end_stage);
  json.EndArray();
  json.Key("output");
  json.BeginObject();
  json.KV("pairs", uint64_t{pairs});
  json.KV("cache_hits", uint64_t{cache_hits});
  json.KV("cache_misses", uint64_t{cache_misses});
  json.KV("seeded_configs", uint64_t{seeded});
  json.KV("events_popped", uint64_t{events_popped});
  json.KV("pairs_scored", uint64_t{pairs_scored});
  json.KV("zero_copy_rows", uint64_t{zero_copy_rows});
  json.KV("materialized_rows", uint64_t{materialized_rows});
  json.KV("overlap_cache_shards", uint64_t{last_result.overlap_cache_shards_used});
  char checksum_hex[16];
  std::snprintf(checksum_hex, sizeof(checksum_hex), "%08x", checksum);
  json.KV("topk_checksum", checksum_hex);
  json.KV("determinism_checked", true);
  json.KV("identical_to_single_thread", identical_to_single_thread);
  json.EndObject();
  json.EndObject();
  out << "\n";
  std::printf("wrote %s (end_to_end best %.3fs, joint best %.3fs)\n",
              config.path.c_str(), end_to_end_stage.best, joint_stage.best);
  if (!identical_to_single_thread) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: parallel output differs from the "
                 "single-threaded run\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mc

int main(int argc, char** argv) {
  mc::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--json=")) {
      config.path = v;
    } else if (const char* v = value_of("--engine=")) {
      config.engine = v;
    } else if (const char* v = value_of("--dataset=")) {
      config.dataset = v;
    } else if (const char* v = value_of("--scale=")) {
      config.scale = std::atof(v);
    } else if (const char* v = value_of("--reps=")) {
      config.reps = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--k=")) {
      config.k = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--threads=")) {
      config.threads = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--build-threads=")) {
      config.build_threads = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--cache-shards=")) {
      config.cache_shards = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--q=")) {
      config.q = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--reuse-trigger=")) {
      config.reuse_trigger = std::atof(v);
    }
  }
  if (config.path.empty()) {
    std::fprintf(stderr,
                 "usage: micro_joint --json=PATH [--engine=L] "
                 "[--dataset=amazon_google|music] [--scale=F] [--reps=N] "
                 "[--k=N] [--threads=N] [--build-threads=N] "
                 "[--cache-shards=N] [--q=N] [--reuse-trigger=F]\n");
    return 2;
  }
  return mc::RunJsonBench(config);
}
