// Google-benchmark microbenchmarks for the SSJ kernels: QJoin vs TopKJoin
// (the paper's §4.1 contribution — deferring score computation), the brute
// force baseline, top-k list maintenance, the flat pair map, and rank
// aggregation.
//
// Besides the interactive google-benchmark mode, `--json=PATH` runs a fixed
// default workload and emits a machine-readable perf record (see
// bench/README.md); bench/BENCH_ssj.json archives the before/after records
// of every QJoin perf PR. Knobs: --scale=F (dataset fraction, default 0.02),
// --reps=N (timed repetitions per point, default 5), --k=N (default 200),
// --engine=LABEL (free-form engine tag embedded in the record).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench_json.h"
#include "datagen/generator.h"
#include "rank/rank_aggregation.h"
#include "simd/kernels.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/profile.h"
#include "util/crc32.h"
#include "util/flat_hash.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace mc {
namespace {

// Shared fixture data: a music-style corpus (leaked intentionally; static
// lifetime).
const SsjCorpus& MusicCorpus() {
  static const SsjCorpus& corpus = *[] {
    datagen::GeneratedDataset dataset = datagen::GenerateMusic(
        datagen::ScaleDims(datagen::kDimsMusic1, 0.02));  // 2K x 2K.
    std::vector<size_t> columns;
    for (size_t c = 0; c < dataset.table_a.schema().size(); ++c) {
      columns.push_back(c);
    }
    return new SsjCorpus(
        SsjCorpus::Build(dataset.table_a, dataset.table_b, columns));
  }();
  return corpus;
}

void BM_TopKJoinQ(benchmark::State& state) {
  const SsjCorpus& corpus = MusicCorpus();
  ConfigView view = corpus.MakeConfigView(0xFF);
  TopKJoinOptions options;
  options.k = 200;
  options.q = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    TopKList result = RunTopKJoin(view, options);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_TopKJoinQ)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_BruteForceTopK(benchmark::State& state) {
  const SsjCorpus& corpus = MusicCorpus();
  ConfigView view = corpus.MakeConfigView(0xFF);
  for (auto _ : state) {
    TopKList result = BruteForceTopK(view, 200, SetMeasure::kJaccard);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_BruteForceTopK);

void BM_TopKListAdd(benchmark::State& state) {
  Rng rng(1);
  std::vector<ScoredPair> entries;
  for (int i = 0; i < 100000; ++i) {
    entries.push_back(ScoredPair{MakePairId(rng.NextBelow(10000),
                                            rng.NextBelow(10000)),
                                 rng.NextDouble()});
  }
  for (auto _ : state) {
    TopKList list(1000);
    for (const ScoredPair& entry : entries) list.Add(entry.pair, entry.score);
    benchmark::DoNotOptimize(list.KthScore());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_TopKListAdd);

void BM_PairFlatMap(benchmark::State& state) {
  Rng rng(2);
  std::vector<PairId> keys;
  for (int i = 0; i < 200000; ++i) {
    keys.push_back(MakePairId(rng.NextBelow(5000), rng.NextBelow(5000)));
  }
  for (auto _ : state) {
    PairFlatMap<uint32_t> map(1 << 16);
    for (PairId key : keys) {
      bool inserted = false;
      ++*map.FindOrInsert(key, 0u, &inserted);
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_PairFlatMap);

void BM_MedRank(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<ScoredPair>> lists;
  for (int l = 0; l < 20; ++l) {
    std::vector<ScoredPair> list;
    for (int i = 0; i < 1000; ++i) {
      list.push_back(ScoredPair{MakePairId(0, rng.NextBelow(5000)),
                                1.0 - i * 1e-4});
    }
    lists.push_back(std::move(list));
  }
  for (auto _ : state) {
    RankAggregator aggregator(lists, 7);
    std::vector<PairId> order = aggregator.MedRank();
    benchmark::DoNotOptimize(order.size());
  }
}
BENCHMARK(BM_MedRank);

void BM_CorpusBuild(benchmark::State& state) {
  datagen::GeneratedDataset dataset = datagen::GenerateMusic(
      datagen::ScaleDims(datagen::kDimsMusic1, 0.02));
  std::vector<size_t> columns;
  for (size_t c = 0; c < dataset.table_a.schema().size(); ++c) {
    columns.push_back(c);
  }
  for (auto _ : state) {
    SsjCorpus corpus =
        SsjCorpus::Build(dataset.table_a, dataset.table_b, columns);
    benchmark::DoNotOptimize(corpus.dictionary().size());
  }
}
BENCHMARK(BM_CorpusBuild);

// --------------------------------------------------------------------------
// Machine-readable perf record (--json mode).
// --------------------------------------------------------------------------

// CRC-32 over the sorted top-k list (pair ids + raw score bits), so two
// engines can be compared for *identical* output, not just equal timing.
uint32_t TopKChecksum(const TopKList& list) {
  uint32_t crc = 0;
  for (const ScoredPair& entry : list.SortedDescending()) {
    crc = Crc32(&entry.pair, sizeof(entry.pair), crc);
    crc = Crc32(&entry.score, sizeof(entry.score), crc);
  }
  return crc;
}

struct JsonBenchConfig {
  std::string path;
  std::string engine = "unspecified";
  double scale = 0.02;
  size_t reps = 5;
  size_t k = 200;
};

// One timed point: RunTopKJoin at (q, shards) on the default workload.
struct JsonBenchResult {
  size_t q = 1;
  size_t shards = 1;
  double best_seconds = 0.0;
  double mean_seconds = 0.0;
  size_t pairs = 0;
  size_t events_popped = 0;
  size_t pairs_scored = 0;
  uint32_t checksum = 0;
};

JsonBenchResult TimeJoin(const ConfigView& view, size_t k, size_t q,
                         size_t shards, size_t reps) {
  JsonBenchResult result;
  result.q = q;
  result.shards = shards;
  double total = 0.0;
  double best = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    TopKJoinOptions options;
    options.k = k;
    options.q = q;
    options.shards = shards;
    TopKJoinStats stats;
    Stopwatch watch;
    TopKList list = RunTopKJoin(view, options, nullptr, nullptr, &stats);
    double seconds = watch.ElapsedSeconds();
    total += seconds;
    if (rep == 0 || seconds < best) best = seconds;
    result.pairs = list.size();
    result.events_popped = stats.events_popped;
    result.pairs_scored = stats.pairs_scored;
    result.checksum = TopKChecksum(list);
  }
  result.best_seconds = best;
  result.mean_seconds = total / static_cast<double>(reps);
  return result;
}

int RunJsonBench(const JsonBenchConfig& config) {
  datagen::GeneratedDataset dataset = datagen::GenerateMusic(
      datagen::ScaleDims(datagen::kDimsMusic1, config.scale));
  std::vector<size_t> columns;
  for (size_t c = 0; c < dataset.table_a.schema().size(); ++c) {
    columns.push_back(c);
  }
  SsjCorpus corpus =
      SsjCorpus::Build(dataset.table_a, dataset.table_b, columns);
  ConfigView view = corpus.MakeConfigView(0xFF);

  std::vector<JsonBenchResult> results;
  for (size_t q = 1; q <= 4; ++q) {
    results.push_back(TimeJoin(view, config.k, q, /*shards=*/1, config.reps));
  }
  // One sharded point at the fastest-typical q, as a parallel-mode record.
  // Its score multiset matches the sequential q=2 run, but the checksum may
  // differ: pair identity at the boundary score can vary among equal-score
  // ties (the merged list keeps the k best under the (score, pair) total
  // order; the sequential engine may never score a tied boundary pair its
  // pruning bound already excluded).
  results.push_back(TimeJoin(view, config.k, /*q=*/2, /*shards=*/4,
                             config.reps));

  std::ofstream out(config.path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", config.path.c_str());
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.KV("schema_version", uint64_t{1});
  json.KV("benchmark", "micro_ssj_topk_join");
  json.KV("engine", config.engine);
  json.Key("workload");
  json.BeginObject();
  // Machine context: every record names the core budget and the SIMD level
  // it ran under, so archived numbers are comparable across runners.
  json.KV("cpu_cores",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.KV("simd_level", simd::SimdLevelName(simd::ActiveSimdLevel()));
  json.KV("dataset", "music");
  json.KV("scale", config.scale);
  json.KV("rows_a", uint64_t{dataset.table_a.num_rows()});
  json.KV("rows_b", uint64_t{dataset.table_b.num_rows()});
  json.KV("config_mask", uint64_t{0xFF});
  json.KV("measure", "jaccard");
  json.KV("k", uint64_t{config.k});
  json.KV("repetitions", uint64_t{config.reps});
  json.EndObject();
  json.Key("results");
  json.BeginArray();
  for (const JsonBenchResult& result : results) {
    json.BeginObject();
    json.KV("name", "run_topk_join");
    json.KV("q", uint64_t{result.q});
    json.KV("shards", uint64_t{result.shards});
    json.KV("best_seconds", result.best_seconds);
    json.KV("mean_seconds", result.mean_seconds);
    json.KV("pairs", uint64_t{result.pairs});
    json.KV("events_popped", uint64_t{result.events_popped});
    json.KV("pairs_scored", uint64_t{result.pairs_scored});
    char checksum[16];
    std::snprintf(checksum, sizeof(checksum), "%08x", result.checksum);
    json.KV("topk_checksum", checksum);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  std::printf("wrote %s\n", config.path.c_str());
  return 0;
}

}  // namespace
}  // namespace mc

int main(int argc, char** argv) {
  mc::JsonBenchConfig config;
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--json=")) {
      json_mode = true;
      config.path = v;
    } else if (const char* v = value_of("--engine=")) {
      config.engine = v;
    } else if (const char* v = value_of("--scale=")) {
      config.scale = std::atof(v);
    } else if (const char* v = value_of("--reps=")) {
      config.reps = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--k=")) {
      config.k = static_cast<size_t>(std::atoll(v));
    }
  }
  if (json_mode) return mc::RunJsonBench(config);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
