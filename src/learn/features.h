#ifndef MATCHCATCHER_LEARN_FEATURES_H_
#define MATCHCATCHER_LEARN_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "blocking/pair.h"
#include "table/table.h"
#include "table/tokenized_table.h"

namespace mc {

class ThreadPool;

/// A pair's feature vector for the Match Verifier's random forest.
using FeatureVector = std::vector<double>;

/// Extracts similarity features for tuple pairs. Per non-numeric attribute:
/// word Jaccard, 3-gram Jaccard, word cosine, word overlap coefficient,
/// normalized edit similarity (on a bounded prefix — long descriptions would
/// make full edit distance quadratic in hundreds of characters), and a
/// both-present flag. Per numeric attribute: absolute difference, relative
/// difference, and a both-present flag. Missing values zero the similarity
/// features and the flag, letting trees learn "missing brand" style blocker
/// problems directly.
///
/// Thread-safe: any number of threads may call the const API on one
/// extractor at once.
class PairFeatureExtractor {
 public:
  PairFeatureExtractor(const Table* table_a, const Table* table_b);

  size_t num_features() const { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  FeatureVector Extract(PairId pair) const;

  /// Writes the features of `pair` into out[0..num_features()).
  void ExtractInto(PairId pair, double* out) const;

  /// Fills a row-major feature matrix (count x num_features()): row i gets
  /// the features of pairs[i]. `num_threads > 1` extracts rows in parallel
  /// over a ThreadPool — rows are disjoint writes and extraction only reads
  /// the tables, the plane and this call's row codes, so the matrix is
  /// bit-identical for every thread count. This is the once-per-iteration
  /// matrix build of the verifier's batched re-ranking.
  void ExtractBatch(const PairId* pairs, size_t count, size_t num_threads,
                    double* matrix) const;

  /// Same, but reusing a caller-owned pool (nullptr = sequential). Callers
  /// building matrices every iteration (the verifier loop) avoid spawning
  /// workers per call.
  void ExtractBatch(const PairId* pairs, size_t count, ThreadPool* pool,
                    double* matrix) const;

 private:
  static constexpr size_t kEditPrefixLimit = 30;

  // CodeRow's reused buffers.
  struct CodeScratch {
    std::string normalized;  // A cell's normalized edit prefix.
    std::string grams;       // ForEachQGram's buffer.
    std::string prefixes;    // The row's edit prefixes, column by column.
  };

  // Appends the slab of (side, row) to `out`: S + 1 gram offsets and S + 1
  // prefix offsets (S = string_columns_.size()), then every string
  // column's sorted distinct 3-gram codes (AppendQGramCodes) in
  // string-column order, then the columns' normalized edit prefixes (at
  // most kEditPrefixLimit bytes each), packed bytewise into whole words.
  // Column s's codes span [offsets[s], offsets[s + 1]) past the offsets,
  // its prefix the bytes [prefix_offsets[s], prefix_offsets[s + 1]) past
  // the codes. Missing cells have neither.
  void CodeRow(size_t side, size_t row, std::vector<uint32_t>& out,
               CodeScratch& scratch) const;
  // ExtractInto over the slabs of the pair's two rows (nullptr without a
  // plane).
  void ExtractWith(PairId pair, const uint32_t* slab_a,
                   const uint32_t* slab_b, double* out) const;

  const Table* table_a_;
  const Table* table_b_;
  // Shared text plane of the pair, when attached: Extract reads per-cell
  // word spans instead of re-tokenizing both cell strings per call. 3-grams
  // and edit prefixes are not kept on the plane, which would pin them for
  // its life: each call codes the rows it scores (ExtractBatch each
  // distinct row once) and frees the codes on return. The verifier caches
  // features per pair, so no later call would read them again.
  const TokenizedTable* plane_ = nullptr;
  size_t plane_side_[2] = {0, 0};  // Plane side of table A, of table B.
  std::vector<std::string> feature_names_;
  std::vector<size_t> string_columns_;
};

}  // namespace mc

#endif  // MATCHCATCHER_LEARN_FEATURES_H_
