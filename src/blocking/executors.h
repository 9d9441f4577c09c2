#ifndef MATCHCATCHER_BLOCKING_EXECUTORS_H_
#define MATCHCATCHER_BLOCKING_EXECUTORS_H_

#include "blocking/candidate_set.h"
#include "blocking/key_function.h"
#include "blocking/predicate.h"
#include "table/table.h"

namespace mc {

/// Indexed candidate enumeration for each indexable predicate type (paper
/// §2, "Efficient Execution of Blockers"). Each function returns exactly the
/// pairs satisfying the predicate — the index is a complete filter followed
/// by exact verification — so `Enumerate*(...)` ≡ naive evaluation, a
/// property pinned by the blocking equivalence tests.

/// Hash/attribute-equivalence: hash-partition on the key.
CandidateSet EnumerateKeyEquality(const Table& table_a, const Table& table_b,
                                  const KeyFunction& key);

/// Similarity threshold (Jaccard/cosine/Dice/overlap-coefficient): prefix
/// filtering under a document-frequency global token order with length and
/// positional filters (docs/algorithms.md §"Prefix-filter blockers"), then
/// exact verification.
CandidateSet EnumerateSetSimilarity(const Table& table_a,
                                    const Table& table_b,
                                    const SetSimilarityPredicate& predicate);

/// Token-overlap threshold: prefix and positional filtering with required
/// overlap c, then exact verification.
CandidateSet EnumerateOverlap(const Table& table_a, const Table& table_b,
                              const OverlapPredicate& predicate);

/// Edit distance on blocking keys: 2-gram index with a short-key fallback,
/// then bounded edit-distance verification.
CandidateSet EnumerateEditDistanceKeys(const Table& table_a,
                                       const Table& table_b,
                                       const EditDistancePredicate& predicate);

/// Sorted neighborhood: merge-sort both tables on the key; every cross-table
/// pair within a window of `window` consecutive entries survives.
CandidateSet EnumerateSortedNeighborhood(const Table& table_a,
                                         const Table& table_b,
                                         const KeyFunction& key,
                                         size_t window);

}  // namespace mc

#endif  // MATCHCATCHER_BLOCKING_EXECUTORS_H_
