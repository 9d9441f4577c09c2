#ifndef MATCHCATCHER_JOINT_PARENT_MERGE_H_
#define MATCHCATCHER_JOINT_PARENT_MERGE_H_

#include <vector>

#include "ssj/topk_join.h"
#include "ssj/topk_list.h"

namespace mc {

/// Re-scores a parent's top-k pairs under the child config using the
/// child's scorer ("this re-adjustment is fairly straightforward (and
/// inexpensive) because the overlap information ... should already be in
/// H", §4.2). Pairs where either tuple has no tokens under the child
/// config are dropped: such tuples never take part in the child's join (an
/// empty string carries no similarity evidence), and the empty-vs-empty
/// case would degenerately score 1.0.
std::vector<ScoredPair> ReadjustToConfig(const std::vector<ScoredPair>& pairs,
                                         const ConfigView& view,
                                         PairScorer& scorer);

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_PARENT_MERGE_H_
