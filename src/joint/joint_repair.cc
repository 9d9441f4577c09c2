#include "joint/joint_repair.h"

#include <utility>

#include "joint/parent_merge.h"
#include "ssj/topk_delta.h"
#include "ssj/topk_join.h"
#include "util/check.h"

namespace mc {

std::vector<std::vector<ScoredPair>> RepairJointLists(
    const SsjCorpus& corpus, const JointListsSnapshot& snapshot,
    const std::vector<RowId>& touched_a, const std::vector<RowId>& touched_b,
    const JointRepairOptions& options, JointRepairStats* stats) {
  const size_t n = snapshot.configs.size();
  MC_CHECK_EQ(snapshot.parents.size(), n);
  MC_CHECK_EQ(snapshot.seeded.size(), n);
  MC_CHECK_EQ(snapshot.lists.size(), n);

  JointRepairStats local_stats;
  JointRepairStats& s = stats != nullptr ? *stats : local_stats;
  s = JointRepairStats{};

  std::vector<std::vector<ScoredPair>> repaired(n);
  for (size_t i = 0; i < n; ++i) {
    // Nodes are stored in generation order: every parent precedes its
    // children, so the parent's repaired list is ready when needed.
    MC_CHECK_LT(snapshot.parents[i], static_cast<int>(i));
    const ConfigView view = corpus.MakeConfigView(snapshot.configs[i]);

    // Replay the execution's seeding decision with the *repaired* parent
    // list — the same re-adjustment a from-scratch run performs when a
    // child starts after its parent finished.
    std::vector<ScoredPair> seed;
    const bool has_seed = snapshot.seeded[i] != 0 && snapshot.parents[i] >= 0;
    if (has_seed) {
      DirectPairScorer scorer(&view, snapshot.measure);
      seed = ReadjustToConfig(repaired[snapshot.parents[i]], view, scorer);
    }

    TopKRepairOptions repair_options;
    repair_options.k = snapshot.k;
    repair_options.measure = snapshot.measure;
    repair_options.q = snapshot.q_used;
    repair_options.exclude = options.exclude;
    repair_options.run_context = options.run_context;
    TopKRepairStats repair_stats;
    TopKList list =
        RepairTopKList(view, snapshot.lists[i], touched_a, touched_b,
                       repair_options, has_seed ? &seed : nullptr,
                       &repair_stats);
    s.pairs_rescored += repair_stats.pairs_rescored;
    if (repair_stats.fell_back) {
      ++s.configs_rejoined;
    } else {
      ++s.configs_repaired;
    }
    repaired[i] = list.SortedDescending();
  }
  return repaired;
}

}  // namespace mc
