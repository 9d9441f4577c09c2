#ifndef MATCHCATCHER_BENCH_BENCH_COMMON_H_
#define MATCHCATCHER_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "table/table.h"

namespace mc {
namespace bench {

/// Environment knobs shared by every experiment binary:
///   MC_BENCH_SCALE   — multiplies every dataset's default scale (default 1).
///   MC_BENCH_THREADS — worker threads for the joint executor (default: all
///                      cores).
/// Paper-table datasets (A-G, W-A, A-D, F-Z) default to full paper size;
/// the large ones (M1, M2, Papers) default to a fraction that keeps each
/// binary in the minutes range (the printed header states the actual sizes).
double EnvScale();
size_t EnvThreads();

/// MC_BENCH_Q — QJoin q (default 2; 0 = cost-based planner, 1 = TopKJoin).
size_t EnvQ();

/// Default generation scale for a dataset (before MC_BENCH_SCALE).
double DefaultDatasetScale(const std::string& name);

/// Generates a dataset at its default scale times MC_BENCH_SCALE.
datagen::GeneratedDataset LoadDataset(const std::string& name);

/// Prints "dataset: |A|=..., |B|=..., gold=..." to stdout.
void PrintDatasetHeader(const datagen::GeneratedDataset& dataset);

/// CRC-32 over every config's list of a joint run, in config order (pair
/// ids and raw score bits), so two runs can be compared for *identical*
/// output.
uint32_t JointChecksum(const JointResult& result);

/// Fixed-width cell helpers for table output.
std::string Cell(const std::string& text, size_t width);
std::string Cell(double value, size_t width, int precision = 1);
std::string Cell(size_t value, size_t width);

}  // namespace bench
}  // namespace mc

#endif  // MATCHCATCHER_BENCH_BENCH_COMMON_H_
