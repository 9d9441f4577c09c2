#include "bench_common.h"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/check.h"
#include "util/crc32.h"

namespace mc {
namespace bench {

double EnvScale() {
  const char* value = std::getenv("MC_BENCH_SCALE");
  if (value == nullptr) return 1.0;
  double scale = std::atof(value);
  return scale > 0.0 ? scale : 1.0;
}

size_t EnvThreads() {
  const char* value = std::getenv("MC_BENCH_THREADS");
  if (value == nullptr) return 0;  // 0 = hardware concurrency downstream.
  long threads = std::atol(value);
  return threads > 0 ? static_cast<size_t>(threads) : 0;
}

size_t EnvQ() {
  const char* value = std::getenv("MC_BENCH_Q");
  if (value == nullptr) return 2;
  long q = std::atol(value);
  return q >= 0 ? static_cast<size_t>(q) : 2;
}

double DefaultDatasetScale(const std::string& name) {
  // Small paper datasets run at full size; the 100K-500K+ ones are scaled
  // so every experiment binary finishes in minutes on a laptop. Figure 9
  // sweeps table size explicitly, so shapes are still measured.
  if (name == "M1") return 0.10;     // 10K tuples per table.
  if (name == "M2") return 0.03;     // 15K tuples per table.
  if (name == "Papers") return 0.01;  // ~4.6K x 6.3K tuples.
  return 1.0;
}

datagen::GeneratedDataset LoadDataset(const std::string& name) {
  double scale = DefaultDatasetScale(name) * EnvScale();
  Result<datagen::GeneratedDataset> dataset =
      datagen::GenerateByName(name, scale);
  MC_CHECK(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

void PrintDatasetHeader(const datagen::GeneratedDataset& dataset) {
  std::cout << dataset.name << ": |A|=" << dataset.table_a.num_rows()
            << " |B|=" << dataset.table_b.num_rows()
            << " gold=" << dataset.gold.size() << "\n";
}

uint32_t JointChecksum(const JointResult& result) {
  uint32_t crc = 0;
  for (const ConfigJoinResult& config : result.per_config) {
    for (const ScoredPair& entry : config.topk) {
      crc = Crc32(&entry.pair, sizeof(entry.pair), crc);
      crc = Crc32(&entry.score, sizeof(entry.score), crc);
    }
  }
  return crc;
}

std::string Cell(const std::string& text, size_t width) {
  std::ostringstream out;
  out << std::left << std::setw(static_cast<int>(width)) << text;
  return out.str();
}

std::string Cell(double value, size_t width, int precision) {
  std::ostringstream number;
  number << std::fixed << std::setprecision(precision) << value;
  return Cell(number.str(), width);
}

std::string Cell(size_t value, size_t width) {
  return Cell(std::to_string(value), width);
}

}  // namespace bench
}  // namespace mc
