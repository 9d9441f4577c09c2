#include "workloads.h"

#include <utility>

namespace mc {
namespace sessionbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json, and
// sessionbench/README.md compares the scaled sizes with the full-size
// datasets. The sizes keep one pass over a run's datasets and blockers
// within about 15 s on a 4-core host.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"wa_lowk", "W-A", 0.25, 100, {"OL", "HASH", "SIM", "R"}, 4, 3, false},
      {"ag_reuse", "A-G", 0.3, 300, {"OL", "HASH", "SIM", "R"}, 4, 3, false},
      {"m2_scale",
       "M2",
       0.02,
       100,
       {"HASH1", "HASH2", "SIM1", "SIM2", "SIM3"},
       4,
       2,
       false},
      {"service_mix", "A-G", 0.3, 100, {"OL"}, 1, 3, true},
  };
  return workloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t DatasetSeed(uint64_t seed, size_t index) {
  return seed * kMaxDatasets + index;
}

TableDelta SmallRandomDelta(const Table& table, uint8_t side,
                            size_t generation, size_t delta_rows, Rng& rng) {
  TableDelta delta;
  delta.side = side;
  const size_t rows = table.num_rows();
  const size_t cols = table.num_columns();
  auto row_values = [&](size_t row) {
    std::vector<std::string> values;
    values.reserve(cols);
    for (size_t c = 0; c < cols; ++c) values.emplace_back(table.Value(row, c));
    return values;
  };
  std::vector<uint32_t> used;
  for (size_t m = 0; m < delta_rows; ++m) {
    const uint32_t row = static_cast<uint32_t>(rng.NextBelow(rows));
    bool seen = false;
    for (uint32_t u : used) seen = seen || u == row;
    if (seen) continue;
    used.push_back(row);
    TableDelta::RowEdit edit;
    edit.row = row;
    edit.values = row_values(row);
    edit.values[rng.NextBelow(cols)] +=
        " g" + std::to_string(generation) + "m" + std::to_string(m);
    delta.mutated.push_back(std::move(edit));
  }
  std::vector<std::string> appended = row_values(rng.NextBelow(rows));
  appended[0] += " appended" + std::to_string(generation);
  delta.appended.push_back(std::move(appended));
  return delta;
}

}  // namespace sessionbench
}  // namespace mc
