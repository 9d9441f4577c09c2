// Output identity of the blocking layer: prints one line per (dataset,
// seed, tokenization path, blocker) with the size of the blocker's output C
// and an FNV-1a checksum of its sorted pairs. The blockers are the Table 2
// blockers of every dataset plus the §6.2 best-hash and improved blockers;
// each runs once from strings and once over the shared text plane.
//
// A change to the blocking layer that must not change any output is checked
// by diffing this program's output before and after the change:
//
//   build/bench/blocker_checksums > after.txt
//   diff bench/BLOCKER_CHECKSUMS.txt after.txt
//
// Timings go to stderr, so the standard output is byte-stable.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "paper_blockers.h"
#include "datagen/generator.h"
#include "table/tokenized_table.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mc {
namespace bench {
namespace {

uint64_t Fnv1a(const std::vector<PairId>& pairs) {
  uint64_t hash = 1469598103934665603ULL;
  for (PairId pair : pairs) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (pair >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

struct Dataset {
  const char* name;
  double scale;  // Fraction of the paper size; keeps the run near a minute.
  bool has_section62_blockers;
};

void PrintChecksums(const Dataset& spec, uint64_t seed) {
  Result<datagen::GeneratedDataset> generated =
      datagen::GenerateByName(spec.name, spec.scale, seed);
  MC_CHECK(generated.ok()) << generated.status().ToString();
  datagen::GeneratedDataset& dataset = generated.value();
  for (int plane = 0; plane < 2; ++plane) {
    if (plane == 1) {
      TokenizedTable::BuildAndAttach(dataset.table_a, dataset.table_b);
    }
    const Schema& schema = dataset.table_a.schema();
    std::vector<PaperBlocker> blockers = PaperBlockersFor(spec.name, schema);
    if (spec.has_section62_blockers) {
      blockers.push_back({"BEST", BestHashBlockerFor(spec.name, schema)});
      blockers.push_back({"IMPROVED", ImprovedBlockerFor(spec.name, schema)});
    }
    for (const PaperBlocker& blocker : blockers) {
      Stopwatch watch;
      CandidateSet output = blocker.blocker->Run(dataset.table_a,
                                                 dataset.table_b);
      const double seconds = watch.ElapsedSeconds();
      std::printf("%s seed=%llu plane=%d %s size=%zu fnv=%016llx\n",
                  spec.name, static_cast<unsigned long long>(seed), plane,
                  blocker.label.c_str(), output.size(),
                  static_cast<unsigned long long>(
                      Fnv1a(output.SortedPairs())));
      std::fprintf(stderr, "%s seed=%llu plane=%d %s %.3fs\n", spec.name,
                   static_cast<unsigned long long>(seed), plane,
                   blocker.label.c_str(), seconds);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace mc

int main() {
  const std::vector<mc::bench::Dataset> datasets = {
      {"A-G", 1.0, true}, {"W-A", 0.5, true}, {"A-D", 1.0, true},
      {"F-Z", 1.0, true}, {"M1", 0.1, true},  {"M2", 0.02, false}};
  for (const mc::bench::Dataset& dataset : datasets) {
    for (uint64_t seed : {0, 7, 13}) mc::bench::PrintChecksums(dataset, seed);
  }
  return 0;
}
