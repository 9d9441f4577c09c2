#ifndef MATCHCATCHER_JOINT_CACHING_SCORER_H_
#define MATCHCATCHER_JOINT_CACHING_SCORER_H_

#include "config/config.h"
#include "joint/overlap_cache.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "text/similarity.h"
#include "util/flat_hash.h"

namespace mc {

/// PairScorer that reuses overlap computations across configs via a shared
/// OverlapCache (paper §4.2 "Reusing Similarity Score Computations"). On a
/// cache hit the score is derived from the cached shared-token masks; on a
/// miss the overlap is merged directly from the view spans (no
/// allocation). The scorer only reads the cache: the joint executor writes
/// each config's final top-k pairs at config completion — exactly the pairs
/// parent-to-child reuse re-scores — keeping the cache bounded by
/// O(k x configs) instead of O(all scored pairs).
///
/// Each instance is used by a single shard task (one thread); the cache
/// itself is concurrent.
class CachingPairScorer : public PairScorer {
 public:
  /// Snapshots the cache's current contents into a lock-free local index;
  /// entries published after construction are simply recomputed on miss
  /// (cache values are pointer-stable, so the snapshot stays valid).
  CachingPairScorer(const ConfigView* view, ConfigMask config,
                    SetMeasure measure, const OverlapCache* cache);

  double Score(RowId row_a, RowId row_b) override;

  /// Bounded scoring (see PairScorer::ScoreAbove). On a snapshot hit the
  /// exact score comes from the cached masks (already cheap). On a miss the
  /// view-span merge is abandoned as soon as the remaining tokens cannot
  /// reach the overlap required for `threshold` — the same positional bound
  /// the engine's inline fast path uses.
  bool ScoreAbove(RowId row_a, RowId row_b, double threshold,
                  double* score) override;

  size_t cache_hits() const { return hits_; }
  size_t cache_misses() const { return misses_; }

 private:
  const ConfigView* view_;
  ConfigMask config_;
  SetMeasure measure_;
  // Local snapshot: pair -> pointer into the shared cache.
  PairFlatMap<const CachedOverlap*> snapshot_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_CACHING_SCORER_H_
