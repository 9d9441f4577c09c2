#ifndef MATCHCATCHER_JOINT_JOINT_REPAIR_H_
#define MATCHCATCHER_JOINT_JOINT_REPAIR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blocking/candidate_set.h"
#include "blocking/pair.h"
#include "config/config.h"
#include "ssj/corpus.h"
#include "ssj/topk_list.h"
#include "text/similarity.h"
#include "util/run_context.h"

namespace mc {

/// Everything needed to repair a joint execution's per-config top-k lists
/// after a row delta, captured when the execution finished (the service
/// snapshots this through MatchCatcherOptions::joint_sink). Entries are in
/// config-tree node order; `parents[i]` indexes the node `lists[i]` was
/// seeded from (-1 for the root), and `seeded[i]` records whether the seed
/// actually happened (reuse_topk on and the config had a parent) — the
/// repair must replay the identical seeding decisions to stay bit-identical
/// to a rebuild.
struct JointListsSnapshot {
  std::vector<ConfigMask> configs;
  std::vector<int> parents;
  std::vector<uint8_t> seeded;
  /// Canonical (score desc, pair asc) per-config lists.
  std::vector<std::vector<ScoredPair>> lists;
  size_t k = 0;
  SetMeasure measure = SetMeasure::kJaccard;
  /// The q the execution actually ran with (after any planning).
  size_t q_used = 1;
};

struct JointRepairOptions {
  /// Blocker output C, excluded from every list (unchanged by the delta).
  const CandidateSet* exclude = nullptr;
  RunContext run_context;
};

struct JointRepairStats {
  /// Configs whose list the incremental merge repaired in place.
  size_t configs_repaired = 0;
  /// Configs that fell back to a full re-join (still exact).
  size_t configs_rejoined = 0;
  /// Touched-row pairs scored across all configs.
  size_t pairs_rescored = 0;
};

/// Repairs every config's top-k list against the *patched* corpus, in tree
/// order so each child seeds from its parent's already-repaired list —
/// exactly the data flow of a from-scratch joint execution. Each config
/// goes through RepairTopKList (ssj/topk_delta.h): incremental merge when
/// exactness is provable, full re-join otherwise, canonical either way, so
/// the returned lists are bit-identical to rerunning RunJointTopKJoins over
/// a rebuilt corpus.
std::vector<std::vector<ScoredPair>> RepairJointLists(
    const SsjCorpus& corpus, const JointListsSnapshot& snapshot,
    const std::vector<RowId>& touched_a, const std::vector<RowId>& touched_b,
    const JointRepairOptions& options = {}, JointRepairStats* stats = nullptr);

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_JOINT_REPAIR_H_
