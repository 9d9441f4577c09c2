#ifndef MATCHCATCHER_JOINT_OVERLAP_CACHE_H_
#define MATCHCATCHER_JOINT_OVERLAP_CACHE_H_

#include <cstdint>
#include <vector>

#include "blocking/pair.h"
#include "config/config.h"
#include "ssj/corpus.h"
#include "util/sharded_insert_map.h"

namespace mc {

/// One token shared by both tuples of a pair: the attribute bitmasks of the
/// token on each side. The overlap of the pair under *any* config g is the
/// number of shared tokens with (mask_a ∧ g) and (mask_b ∧ g) non-zero —
/// exact for every config, which is what lets the joint executor (and even
/// sibling configs) reuse one computation (paper §4.2's database H).
struct SharedToken {
  uint32_t mask_a = 0;
  uint32_t mask_b = 0;
};

/// The cached shared-token list of a pair.
using CachedOverlap = std::vector<SharedToken>;

/// Concurrent insert-only cache of pair overlap structure, shared by all
/// configs of one joint execution. Stands in for the per-config Folly
/// atomic hashmaps of the paper with a strictly more reusable keying (see
/// DESIGN.md §2).
class OverlapCache {
 public:
  /// `num_shards` stripes the underlying insert map (rounded up to a power
  /// of two). Size it from the expected pair volume — RecommendShards — or
  /// accept the historical default.
  explicit OverlapCache(size_t num_shards = 256) : map_(num_shards) {}

  /// Shard count sized from the expected entry volume. The cache holds
  /// only *kept* pairs — at most k per config, bounded by the pair space —
  /// inserted concurrently by configs finishing in parallel. Targets a few
  /// entries per stripe so concurrent inserts rarely contend on a mutex,
  /// clamped to [64, 8192] and rounded up to a power of two (so the
  /// returned value is exactly the stripe count the map will use).
  /// Exposed through JointOptions::overlap_cache_shards for bench sweeps.
  static size_t RecommendShards(size_t rows_a, size_t rows_b, size_t k,
                                size_t num_configs);

  /// Planner-informed variant: when the cost planner ran, its extrapolated
  /// scored-pair volume (JoinPlan::est_scored) bounds the kept-pair entries
  /// tighter than the k-per-config worst case — a join whose pruning keeps
  /// most pairs out never inserts them. `estimated_scored_pairs` == 0 falls
  /// back to the heuristic above; the estimate only refines the stripe
  /// count downward (contention is governed by actual entries, and the k *
  /// configs bound still caps the volume).
  static size_t RecommendShards(size_t rows_a, size_t rows_b, size_t k,
                                size_t num_configs,
                                uint64_t estimated_scored_pairs);

  /// The cached overlap of `pair`, or nullptr.
  const CachedOverlap* Find(PairId pair) const { return map_.Find(pair); }

  /// Stores `overlap` for `pair` (first writer wins); returns the stored
  /// value.
  const CachedOverlap* Insert(PairId pair, CachedOverlap overlap) {
    return map_.Insert(pair, std::move(overlap)).first;
  }

  /// Stores the overlap produced by `factory()` if `pair` is absent; the
  /// factory runs only on actual insertion.
  template <typename Factory>
  const CachedOverlap* InsertWith(PairId pair, Factory&& factory) {
    return map_.InsertWith(pair, std::forward<Factory>(factory)).first;
  }

  size_t Size() const { return map_.Size(); }

  /// Invokes fn(pair, overlap) for every cached entry. Safe to run
  /// concurrently with inserts only in the sense that it sees a snapshot of
  /// each shard; callers treat missing late entries as cache misses.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach(std::forward<Fn>(fn));
  }

  /// Shared tokens (with masks) of a tuple pair, computed from the corpus.
  static CachedOverlap ComputeShared(const TupleTokens& a,
                                     const TupleTokens& b);

  /// Overlap of a cached pair under `config`.
  static size_t OverlapUnder(const CachedOverlap& shared, ConfigMask config);

 private:
  ShardedInsertMap<PairId, CachedOverlap, PairIdHash> map_;
};

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_OVERLAP_CACHE_H_
