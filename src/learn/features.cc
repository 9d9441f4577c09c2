#include "learn/features.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "text/normalize.h"
#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace mc {
namespace {

// Runs fn(block, begin, end) over [0, n) split into `blocks` contiguous
// ranges, on `pool` when there is more than one block.
template <typename Fn>
void ForEachBlock(ThreadPool* pool, size_t blocks, size_t n, const Fn& fn) {
  if (blocks <= 1) {
    fn(size_t{0}, size_t{0}, n);
    return;
  }
  const size_t chunk = (n + blocks - 1) / blocks;
  for (size_t block = 0; block * chunk < n; ++block) {
    const size_t begin = block * chunk;
    const size_t end = std::min(begin + chunk, n);
    pool->Submit([&fn, block, begin, end] { fn(block, begin, end); });
  }
  const Status status = pool->Wait();
  MC_CHECK(status.ok()) << status.message();
}

}  // namespace

PairFeatureExtractor::PairFeatureExtractor(const Table* table_a,
                                           const Table* table_b)
    : table_a_(table_a), table_b_(table_b) {
  MC_CHECK(table_a_->schema() == table_b_->schema());
  plane_ = SharedTextPlane(*table_a_, *table_b_);
  if (plane_ != nullptr) {
    plane_side_[0] = table_a_->text_plane_side();
    plane_side_[1] = table_b_->text_plane_side();
  }
  const Schema& schema = table_a_->schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    const std::string& name = schema.attribute(c).name;
    if (schema.attribute(c).type == AttributeType::kNumeric) {
      feature_names_.push_back(name + ":abs_diff");
      feature_names_.push_back(name + ":rel_diff");
      feature_names_.push_back(name + ":both_present");
    } else {
      string_columns_.push_back(c);
      feature_names_.push_back(name + ":jaccard_word");
      feature_names_.push_back(name + ":jaccard_3gram");
      feature_names_.push_back(name + ":cosine_word");
      feature_names_.push_back(name + ":overlap_coeff_word");
      feature_names_.push_back(name + ":edit_sim");
      feature_names_.push_back(name + ":both_present");
    }
  }
}

void PairFeatureExtractor::CodeRow(size_t side, size_t row,
                                   std::vector<uint32_t>& out,
                                   CodeScratch& scratch) const {
  const Table& table = side == 0 ? *table_a_ : *table_b_;
  const size_t header = string_columns_.size() + 1;
  const size_t begin = out.size();
  out.resize(begin + 2 * header, 0);
  scratch.prefixes.clear();
  for (size_t s = 0; s < string_columns_.size(); ++s) {
    const size_t c = string_columns_[s];
    if (!table.IsMissing(row, c)) {
      const std::string_view raw = table.Value(row, c);
      AppendQGramCodes(raw, 3, scratch.grams, out);
      // NormalizeForTokens maps byte for byte, so the normalized value's
      // prefix is the normalized prefix of the raw value.
      NormalizeForTokensInto(raw.substr(0, kEditPrefixLimit),
                             scratch.normalized);
      scratch.prefixes += scratch.normalized;
    }
    out[begin + s + 1] =
        static_cast<uint32_t>(out.size() - begin - 2 * header);
    out[begin + header + s + 1] =
        static_cast<uint32_t>(scratch.prefixes.size());
  }
  const size_t text = out.size();
  out.resize(text + (scratch.prefixes.size() + 3) / 4, 0);
  std::memcpy(out.data() + text, scratch.prefixes.data(),
              scratch.prefixes.size());
}

FeatureVector PairFeatureExtractor::Extract(PairId pair) const {
  FeatureVector features(num_features());
  ExtractInto(pair, features.data());
  return features;
}

void PairFeatureExtractor::ExtractInto(PairId pair, double* out) const {
  const size_t row_a = PairRowA(pair);
  const size_t row_b = PairRowB(pair);
  MC_CHECK_LT(row_a, table_a_->num_rows());
  MC_CHECK_LT(row_b, table_b_->num_rows());
  if (plane_ == nullptr || string_columns_.empty()) {
    ExtractWith(pair, nullptr, nullptr, out);
    return;
  }
  std::vector<uint32_t> slabs;
  CodeScratch scratch;
  CodeRow(0, row_a, slabs, scratch);
  const size_t slab_b = slabs.size();
  CodeRow(1, row_b, slabs, scratch);
  ExtractWith(pair, slabs.data(), slabs.data() + slab_b, out);
}

void PairFeatureExtractor::ExtractWith(PairId pair, const uint32_t* slab_a,
                                       const uint32_t* slab_b,
                                       double* out) const {
  const size_t row_a = PairRowA(pair);
  const size_t row_b = PairRowB(pair);
  const size_t header = string_columns_.size() + 1;
  auto grams = [header](const uint32_t* slab, size_t s) {
    return CellSpan{slab + 2 * header + slab[s], slab[s + 1] - slab[s]};
  };
  auto prefix = [header](const uint32_t* slab, size_t s) {
    const char* text = reinterpret_cast<const char*>(
        slab + 2 * header + slab[header - 1]);
    return std::string_view(text + slab[header + s],
                            slab[header + s + 1] - slab[header + s]);
  };

  double* f = out;
  size_t s = 0;  // String-column index of column c.
  const Schema& schema = table_a_->schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    if (schema.attribute(c).type == AttributeType::kNumeric) {
      std::optional<double> value_a = table_a_->NumericValue(row_a, c);
      std::optional<double> value_b = table_b_->NumericValue(row_b, c);
      if (value_a.has_value() && value_b.has_value()) {
        double abs_diff = std::abs(*value_a - *value_b);
        double magnitude = std::max(std::abs(*value_a), std::abs(*value_b));
        *f++ = abs_diff;
        *f++ = magnitude > 0.0 ? abs_diff / magnitude : 0.0;
        *f++ = 1.0;
      } else {
        *f++ = 0.0;
        *f++ = 0.0;
        *f++ = 0.0;
      }
    } else {
      bool present = !table_a_->IsMissing(row_a, c) &&
                     !table_b_->IsMissing(row_b, c);
      if (present && plane_ != nullptr) {
        // Span path: words come from the tokenize-once plane, 3-grams and
        // edit prefixes from the row slabs; only the slabs are coded per
        // call, once per distinct row. Identical doubles to the string path
        // — all four set measures reduce to SetSimilarityFromCounts over the
        // same (|A|, |B|, overlap), QGramJaccard codes grams with the same
        // coder, and the prefixes are the same normalized bytes.
        CellSpan words_a = plane_->SortedRanks(plane_side_[0], row_a, c);
        CellSpan words_b = plane_->SortedRanks(plane_side_[1], row_b, c);
        const size_t word_overlap = SortedSpanOverlap(words_a, words_b);
        *f++ = SetSimilarityFromCounts(SetMeasure::kJaccard, words_a.size(),
                                       words_b.size(), word_overlap);
        CellSpan grams_a = grams(slab_a, s);
        CellSpan grams_b = grams(slab_b, s);
        *f++ = SetSimilarityFromCounts(SetMeasure::kJaccard, grams_a.size(),
                                       grams_b.size(),
                                       SortedSpanOverlap(grams_a, grams_b));
        *f++ = SetSimilarityFromCounts(SetMeasure::kCosine, words_a.size(),
                                       words_b.size(), word_overlap);
        *f++ = SetSimilarityFromCounts(SetMeasure::kOverlapCoefficient,
                                       words_a.size(), words_b.size(),
                                       word_overlap);
        *f++ = NormalizedEditSimilarity(prefix(slab_a, s), prefix(slab_b, s));
        *f++ = 1.0;
      } else if (present) {
        std::string_view value_a = table_a_->Value(row_a, c);
        std::string_view value_b = table_b_->Value(row_b, c);
        std::vector<std::string> words_a = DistinctWordTokens(value_a);
        std::vector<std::string> words_b = DistinctWordTokens(value_b);
        *f++ = JaccardSimilarity(words_a, words_b);
        *f++ = QGramJaccard(value_a, value_b, 3);
        *f++ = CosineSimilarity(words_a, words_b);
        *f++ = OverlapCoefficient(words_a, words_b);
        std::string norm_a = NormalizeForTokens(value_a).substr(
            0, kEditPrefixLimit);
        std::string norm_b = NormalizeForTokens(value_b).substr(
            0, kEditPrefixLimit);
        *f++ = NormalizedEditSimilarity(norm_a, norm_b);
        *f++ = 1.0;
      } else {
        for (int i = 0; i < 6; ++i) *f++ = 0.0;
      }
      ++s;
    }
  }
  MC_CHECK_EQ(static_cast<size_t>(f - out), num_features());
}

void PairFeatureExtractor::ExtractBatch(const PairId* pairs, size_t count,
                                        size_t num_threads,
                                        double* matrix) const {
  if (num_threads <= 1 || count <= 1) {
    ExtractBatch(pairs, count, static_cast<ThreadPool*>(nullptr), matrix);
    return;
  }
  ThreadPool pool(num_threads, "mc-feat");
  ExtractBatch(pairs, count, &pool, matrix);
}

void PairFeatureExtractor::ExtractBatch(const PairId* pairs, size_t count,
                                        ThreadPool* pool,
                                        double* matrix) const {
  if (count == 0) return;
  const size_t nf = num_features();
  const size_t threads =
      pool == nullptr ? 1 : std::min(pool->num_threads(), count);
  if (plane_ == nullptr || string_columns_.empty()) {
    ForEachBlock(pool, threads, count, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        ExtractInto(pairs[i], matrix + i * nf);
      }
    });
    return;
  }
  // The batch's rows, keyed 2 * row + side, sorted and distinct: each is
  // coded once however many pairs share it.
  std::vector<size_t> rows;
  rows.reserve(2 * count);
  for (size_t i = 0; i < count; ++i) {
    MC_CHECK_LT(PairRowA(pairs[i]), table_a_->num_rows());
    MC_CHECK_LT(PairRowB(pairs[i]), table_b_->num_rows());
    rows.push_back(2 * size_t{PairRowA(pairs[i])});
    rows.push_back(2 * size_t{PairRowB(pairs[i])} + 1);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  // Coded in parallel, one code buffer per block; slab j points into its
  // block's buffer once that block is done growing it.
  std::vector<std::vector<uint32_t>> codes(threads);
  std::vector<size_t> offsets(rows.size());
  std::vector<const uint32_t*> slabs(rows.size());
  ForEachBlock(pool, threads, rows.size(),
               [&](size_t block, size_t begin, size_t end) {
                 CodeScratch scratch;
                 for (size_t j = begin; j < end; ++j) {
                   offsets[j] = codes[block].size();
                   CodeRow(rows[j] & 1, rows[j] >> 1, codes[block], scratch);
                 }
                 for (size_t j = begin; j < end; ++j) {
                   slabs[j] = codes[block].data() + offsets[j];
                 }
               });
  auto slab_of = [&](size_t key) {
    return slabs[std::lower_bound(rows.begin(), rows.end(), key) -
                 rows.begin()];
  };
  ForEachBlock(pool, threads, count, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ExtractWith(pairs[i], slab_of(2 * size_t{PairRowA(pairs[i])}),
                  slab_of(2 * size_t{PairRowB(pairs[i])} + 1),
                  matrix + i * nf);
    }
  });
}

}  // namespace mc
