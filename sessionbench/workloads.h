#ifndef MATCHCATCHER_SESSIONBENCH_WORKLOADS_H_
#define MATCHCATCHER_SESSIONBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"
#include "table/table_delta.h"
#include "util/random.h"

namespace mc {
namespace sessionbench {

/// Most datasets one run may pool; DatasetSeed keeps the panels of
/// different seeds apart.
constexpr size_t kMaxDatasets = 16;

/// The inputs of one workload. Every table the program sees is generated
/// from the run's seed; the benchmark owns these definitions so that the
/// workloads stay fixed while the library changes.
struct WorkloadSpec {
  std::string name;
  /// Paper Table 1 dataset name, passed to datagen::GenerateByName.
  std::string dataset;
  double scale = 1.0;
  /// Top-k size per config.
  size_t k = 1000;
  /// Labels of the paper's Table 2 blockers whose outputs are debugged, in
  /// session order.
  std::vector<std::string> blockers;
  /// Joint and verifier worker threads per session.
  size_t threads = 4;
  /// Datasets generated per run. A run's metrics pool the sessions over all
  /// of them, so that no single dataset's quirks decide a run.
  size_t datasets = 1;
  /// Sessions go through a SessionManager under a concurrent delta writer
  /// instead of back-to-back DebugSession::Create calls.
  bool service = false;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The datagen seed offset of dataset `index` (< kMaxDatasets) of a run.
uint64_t DatasetSeed(uint64_t seed, size_t index);

/// A small seeded delta against `table`: up to `delta_rows` mutated rows
/// (one cell of each gets a fresh token) plus one appended copy of a row —
/// the "few rows changed out of thousands" shape the delta path serves.
TableDelta SmallRandomDelta(const Table& table, uint8_t side,
                            size_t generation, size_t delta_rows, Rng& rng);

}  // namespace sessionbench
}  // namespace mc

#endif  // MATCHCATCHER_SESSIONBENCH_WORKLOADS_H_
