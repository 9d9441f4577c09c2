#include "joint/overlap_cache.h"

#include <algorithm>

namespace mc {

size_t OverlapCache::RecommendShards(size_t rows_a, size_t rows_b, size_t k,
                                     size_t num_configs,
                                     uint64_t estimated_scored_pairs) {
  // Expected entries: one per kept pair, ~k per config, never more than
  // the pair space itself (tiny corpora).
  const uint64_t pair_space =
      static_cast<uint64_t>(rows_a) * static_cast<uint64_t>(rows_b);
  uint64_t expected = std::min<uint64_t>(
      static_cast<uint64_t>(k) * std::max<uint64_t>(num_configs, 1),
      pair_space);
  // A planner estimate of the scored-pair volume refines the worst case
  // downward: kept pairs are a subset of scored pairs, so a join that
  // scores few pairs cannot fill k entries per config.
  if (estimated_scored_pairs > 0) {
    expected = std::min(expected, estimated_scored_pairs);
  }
  // ~8 entries per stripe keeps insert contention negligible without
  // allocating thousands of mutexes for toy workloads (stripe count only
  // changes contention, never results).
  uint64_t shards =
      std::min<uint64_t>(std::max<uint64_t>(expected / 8, 64), 8192);
  uint64_t rounded = 1;
  while (rounded < shards) rounded <<= 1;
  return static_cast<size_t>(rounded);
}

CachedOverlap OverlapCache::ComputeShared(const TupleTokens& a,
                                          const TupleTokens& b) {
  CachedOverlap shared;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.ranks[i] == b.ranks[j]) {
      shared.push_back(SharedToken{a.masks[i], b.masks[j]});
      ++i;
      ++j;
    } else if (a.ranks[i] < b.ranks[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return shared;
}

size_t OverlapCache::OverlapUnder(const CachedOverlap& shared,
                                  ConfigMask config) {
  size_t overlap = 0;
  for (const SharedToken& token : shared) {
    if ((token.mask_a & config) && (token.mask_b & config)) ++overlap;
  }
  return overlap;
}

}  // namespace mc
