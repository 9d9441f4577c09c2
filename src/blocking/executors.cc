#include "blocking/executors.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "table/tokenized_table.h"
#include "text/similarity.h"
#include "text/token_dictionary.h"
#include "util/check.h"

namespace mc {

namespace {

// (key -> rows) partitioning of one table under a key function.
std::unordered_map<std::string, std::vector<RowId>> PartitionByKey(
    const Table& table, const KeyFunction& key) {
  std::unordered_map<std::string, std::vector<RowId>> partitions;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    std::optional<std::string> value = key.Apply(table, row);
    if (!value.has_value()) continue;
    partitions[*value].push_back(static_cast<RowId>(row));
  }
  return partitions;
}

// Tokenized rows of one column in CSR form, each row's token ids sorted
// ascending by the global order (missing cells are empty rows).
struct TokenizedColumn {
  std::vector<uint64_t> offsets{0};  // num_rows() + 1 entries.
  std::vector<TokenId> tokens;

  size_t num_rows() const { return offsets.size() - 1; }
  std::span<const TokenId> Row(size_t row) const {
    return {tokens.data() + offsets[row], tokens.data() + offsets[row + 1]};
  }
  void EndRow() { offsets.push_back(tokens.size()); }
};

// Plane fast path for TokenizeColumns: per-cell token spans (distinct word
// ranks; q-gram ids with their repeats) are precomputed and already sorted
// in a consistent total order shared by both sides, which is all PrefixFilterJoin needs — its exact verification makes
// the resulting candidate set independent of which total order is used.
// Returns false when the tables don't share a plane (or the q-gram plane is
// unavailable); callers then tokenize from strings.
bool TokenizeColumnsFromPlane(const Table& table_a, const Table& table_b,
                              size_t column, const TokenizerSpec& tokenizer,
                              TokenizedColumn* a, TokenizedColumn* b) {
  const TokenizedTable* plane = SharedTextPlane(table_a, table_b);
  if (plane == nullptr) return false;
  const TokenizedTable::QGramColumn* grams = nullptr;
  if (tokenizer.kind == TokenizerSpec::Kind::kQGram) {
    grams = plane->QGramsForColumn(tokenizer.q, column);
    if (grams == nullptr) return false;
  }
  auto copy_side = [&](const Table& table, TokenizedColumn* out) {
    const size_t side = table.text_plane_side();
    out->offsets.reserve(table.num_rows() + 1);
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (!table.IsMissing(row, column)) {
        CellSpan span = grams != nullptr
                            ? grams->Row(side, row)
                            : plane->SortedRanks(side, row, column);
        out->tokens.insert(out->tokens.end(), span.begin(), span.end());
      }
      out->EndRow();
    }
  };
  copy_side(table_a, a);
  copy_side(table_b, b);
  return true;
}

// Tokenizes the predicate column of both tables into a shared dictionary and
// sorts each row's distinct tokens by the global (df, token) order, encoded
// as ranks so plain integer comparison gives the global order.
std::pair<TokenizedColumn, TokenizedColumn> TokenizeColumns(
    const Table& table_a, const Table& table_b, size_t column,
    const TokenizerSpec& tokenizer) {
  TokenizedColumn a, b;
  if (TokenizeColumnsFromPlane(table_a, table_b, column, tokenizer, &a, &b)) {
    return {std::move(a), std::move(b)};
  }
  TokenDictionary dictionary;
  std::vector<TokenId> ids;
  auto intern_table = [&](const Table& table, TokenizedColumn* out) {
    out->offsets.reserve(table.num_rows() + 1);
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (!table.IsMissing(row, column)) {
        ids.clear();
        for (const std::string& token :
             tokenizer.Tokens(table.Value(row, column))) {
          ids.push_back(dictionary.Intern(token));
        }
        dictionary.AddDocument(ids);
        out->tokens.insert(out->tokens.end(), ids.begin(), ids.end());
      }
      out->EndRow();
    }
  };
  intern_table(table_a, &a);
  intern_table(table_b, &b);
  dictionary.FinalizeRanks();
  auto to_ranks = [&](TokenizedColumn& column_tokens) {
    for (TokenId& id : column_tokens.tokens) id = dictionary.RankOf(id);
    for (size_t row = 0; row < column_tokens.num_rows(); ++row) {
      std::sort(column_tokens.tokens.begin() + column_tokens.offsets[row],
                column_tokens.tokens.begin() + column_tokens.offsets[row + 1]);
    }
  };
  to_ranks(a);
  to_ranks(b);
  return {std::move(a), std::move(b)};
}

// Intersection size of two sorted id spans.
size_t SortedOverlap(std::span<const TokenId> a, std::span<const TokenId> b) {
  size_t i = 0, j = 0, overlap = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

// Filter bounds of one set-similarity or overlap predicate: which pairs
// (x, y) of token sets can qualify, from their sizes alone. Every bound
// rounds toward keeping (the -1e-9 slack), so a filter never drops a pair
// the exact verification would accept. Sizes and overlaps count duplicates
// where cells are multisets (q-grams), exactly as the verification does.
struct OverlapBounds {
  // Set-similarity measure, or nullopt for a plain overlap >= min_overlap.
  std::optional<SetMeasure> measure;
  double threshold = 0.0;
  size_t min_overlap = 1;

  // Minimum shared-token count a set of size `len` must contribute for the
  // predicate to hold (the per-side overlap lower bound behind prefix
  // filtering; see DESIGN.md §5). The bound is MinSizeRatio() * len: for
  // each measure the per-side bound and the length filter share one ratio.
  size_t Required(size_t len) const {
    if (!measure.has_value()) return min_overlap;
    return std::max<size_t>(
        1, CeilConservative(MinSizeRatio() * static_cast<double>(len)));
  }

  // Overlap alpha(|x|, |y|) a pair of these sizes needs (positional filter).
  size_t PairRequired(size_t size_x, size_t size_y) const {
    if (!measure.has_value()) return min_overlap;
    const double x = static_cast<double>(size_x);
    const double y = static_cast<double>(size_y);
    double bound = 0.0;
    switch (*measure) {
      case SetMeasure::kJaccard:
        bound = threshold * (x + y) / (1.0 + threshold);
        break;
      case SetMeasure::kCosine:
        bound = threshold * std::sqrt(x * y);
        break;
      case SetMeasure::kDice:
        bound = threshold * (x + y) / 2.0;
        break;
      case SetMeasure::kOverlapCoefficient:
        bound = threshold * std::min(x, y);
        break;
    }
    return CeilConservative(bound);
  }

  // Smallest min(|x|,|y|) / max(|x|,|y|) a qualifying pair can have (the
  // length filter), or 0 when the predicate bounds no size ratio.
  double MinSizeRatio() const {
    if (!measure.has_value()) return 0.0;
    switch (*measure) {
      case SetMeasure::kJaccard:
        return threshold;
      case SetMeasure::kCosine:
        return threshold * threshold;
      case SetMeasure::kDice:
        return threshold / (2.0 - threshold);
      case SetMeasure::kOverlapCoefficient:
        // o >= t * min(|x|,|y|) bounds neither side alone (the partner may
        // be tiny); only o >= 1 is safe.
        return 0.0;
    }
    return 0.0;
  }

  // The exact predicate over verified counts.
  bool Verify(size_t size_x, size_t size_y, size_t overlap) const {
    if (!measure.has_value()) return overlap >= min_overlap;
    return SetSimilarityFromCounts(*measure, size_x, size_y, overlap) >=
           threshold;
  }

  static size_t CeilConservative(double bound) {
    return static_cast<size_t>(std::max(0.0, std::ceil(bound - 1e-9)));
  }
};

// PPJoin-style prefix-filter join: every pair whose exact verified count
// passes `bounds.Verify`. Candidates must share a token within both
// prefixes of length len - Required(len) + 1, pass the length filter, and
// survive the positional filter; the survivors are verified exactly.
//
// The positional filter prunes (x, y) at a prefix match x[j] == y[i] when
//   seen + 1 + min(|x| - j - 1, |y| - i - 1) < alpha(|x|, |y|),
// where `seen` counts the earlier matches of the pair. On q-gram multisets
// repeated tokens make `seen` overcount the true common prefix (every copy
// in y meets every copy in x); the test stays sound because it only needs
// `seen` as an upper bound, and `seen` is never used as the overlap.
CandidateSet PrefixFilterJoin(const TokenizedColumn& a,
                              const TokenizedColumn& b,
                              const OverlapBounds& bounds) {
  // CSR posting index over A's prefixes: (row, size, position) per token
  // id, rows ascending and positions ascending within a row. Ids are dense
  // ranks, so the token dimension is the largest prefix id + 1.
  struct Posting {
    RowId row;
    uint32_t size;
    uint32_t position;
  };
  auto prefix_length = [&](size_t len) -> size_t {
    const size_t need = bounds.Required(len);
    return len < need ? 0 : len - need + 1;
  };
  const size_t rows_a = a.num_rows();
  size_t num_tokens = 0;
  size_t num_postings = 0;
  for (size_t row = 0; row < rows_a; ++row) {
    std::span<const TokenId> tokens = a.Row(row);
    const size_t prefix = prefix_length(tokens.size());
    for (size_t i = 0; i < prefix; ++i) {
      num_tokens = std::max<size_t>(num_tokens, tokens[i] + size_t{1});
    }
    num_postings += prefix;
  }
  std::vector<uint64_t> offsets(num_tokens + 1, 0);
  for (size_t row = 0; row < rows_a; ++row) {
    std::span<const TokenId> tokens = a.Row(row);
    const size_t prefix = prefix_length(tokens.size());
    for (size_t i = 0; i < prefix; ++i) ++offsets[tokens[i] + 1];
  }
  for (size_t t = 0; t < num_tokens; ++t) offsets[t + 1] += offsets[t];
  std::vector<Posting> postings(num_postings);
  {
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t row = 0; row < rows_a; ++row) {
      std::span<const TokenId> tokens = a.Row(row);
      const size_t prefix = prefix_length(tokens.size());
      for (size_t i = 0; i < prefix; ++i) {
        postings[cursor[tokens[i]]++] = {static_cast<RowId>(row),
                                         static_cast<uint32_t>(tokens.size()),
                                         static_cast<uint32_t>(i)};
      }
    }
  }

  // Per-A-row probe state, valid for the B row whose id is in `stamp`
  // (stamping replaces clearing a dedup set per B row).
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  static constexpr uint32_t kPruned = ~uint32_t{0};
  struct Probe {
    uint32_t stamp = kNoRow;
    uint32_t seen = 0;  // kPruned once the positional filter fires.
    uint32_t alpha = 0;
  };
  std::vector<Probe> probes(rows_a);
  std::vector<RowId> candidates;

  const double ratio = bounds.MinSizeRatio();
  CandidateSet result;
  for (size_t row_b = 0; row_b < b.num_rows(); ++row_b) {
    std::span<const TokenId> tokens_b = b.Row(row_b);
    const size_t size_b = tokens_b.size();
    const size_t prefix_b = prefix_length(size_b);
    if (prefix_b == 0) continue;
    // Length filter: ratio * max <= min, so |x| in [ratio|y|, |y|/ratio].
    size_t min_size_a = 0;
    size_t max_size_a = SIZE_MAX;
    if (ratio > 0.0) {
      min_size_a = OverlapBounds::CeilConservative(ratio * size_b);
      max_size_a = static_cast<size_t>(
          std::floor(static_cast<double>(size_b) / ratio + 1e-9));
    }
    const uint32_t stamp = static_cast<uint32_t>(row_b);
    candidates.clear();
    for (size_t i = 0; i < prefix_b; ++i) {
      const TokenId token = tokens_b[i];
      if (token >= num_tokens) continue;
      for (uint64_t p = offsets[token]; p < offsets[token + 1]; ++p) {
        const Posting posting = postings[p];
        if (posting.size < min_size_a || posting.size > max_size_a) continue;
        Probe& probe = probes[posting.row];
        if (probe.stamp != stamp) {
          probe.stamp = stamp;
          probe.seen = 0;
          probe.alpha = static_cast<uint32_t>(
              bounds.PairRequired(posting.size, size_b));
          candidates.push_back(posting.row);
        } else if (probe.seen == kPruned) {
          continue;
        }
        const size_t rest = std::min<size_t>(
            posting.size - posting.position - 1, size_b - i - 1);
        if (probe.seen + 1 + rest < probe.alpha) {
          probe.seen = kPruned;
        } else {
          ++probe.seen;
        }
      }
    }
    for (RowId row_a : candidates) {
      if (probes[row_a].seen == kPruned) continue;
      std::span<const TokenId> tokens_a = a.Row(row_a);
      const size_t overlap = SortedOverlap(tokens_a, tokens_b);
      if (bounds.Verify(tokens_a.size(), size_b, overlap)) {
        result.Add(row_a, static_cast<RowId>(row_b));
      }
    }
  }
  return result;
}

// All padded 2-grams of `key`, *with duplicates* (the count-filter theorem
// for edit distance is stated over gram multisets).
std::vector<std::string> PaddedBigrams(const std::string& key) {
  std::string padded = "#" + key + "#";
  std::vector<std::string> grams;
  grams.reserve(padded.size() - 1);
  for (size_t i = 0; i + 2 <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, 2));
  }
  return grams;
}

}  // namespace

CandidateSet EnumerateKeyEquality(const Table& table_a, const Table& table_b,
                                  const KeyFunction& key) {
  auto partitions_a = PartitionByKey(table_a, key);
  auto partitions_b = PartitionByKey(table_b, key);
  // Pre-size from the exact output size, the sum over keys of |A_k|*|B_k|.
  size_t total = 0;
  for (const auto& [value, rows_b] : partitions_b) {
    auto it = partitions_a.find(value);
    if (it != partitions_a.end()) total += it->second.size() * rows_b.size();
  }
  CandidateSet result;
  result.Reserve(total);
  for (const auto& [value, rows_b] : partitions_b) {
    auto it = partitions_a.find(value);
    if (it == partitions_a.end()) continue;
    for (RowId row_a : it->second) {
      for (RowId row_b : rows_b) result.Add(row_a, row_b);
    }
  }
  return result;
}

CandidateSet EnumerateSetSimilarity(const Table& table_a,
                                    const Table& table_b,
                                    const SetSimilarityPredicate& predicate) {
  auto [a, b] = TokenizeColumns(table_a, table_b, predicate.column(),
                                predicate.tokenizer());
  OverlapBounds bounds;
  bounds.measure = predicate.measure();
  bounds.threshold = predicate.threshold();
  return PrefixFilterJoin(a, b, bounds);
}

CandidateSet EnumerateOverlap(const Table& table_a, const Table& table_b,
                              const OverlapPredicate& predicate) {
  auto [a, b] = TokenizeColumns(table_a, table_b, predicate.column(),
                                predicate.tokenizer());
  OverlapBounds bounds;
  bounds.min_overlap = std::max<size_t>(1, predicate.min_overlap());
  return PrefixFilterJoin(a, b, bounds);
}

CandidateSet EnumerateEditDistanceKeys(
    const Table& table_a, const Table& table_b,
    const EditDistancePredicate& predicate) {
  const size_t d = predicate.max_distance();
  auto keys_a = PartitionByKey(table_a, predicate.key());
  auto keys_b = PartitionByKey(table_b, predicate.key());

  // Distinct keys as vectors for indexing.
  std::vector<const std::string*> distinct_a;
  distinct_a.reserve(keys_a.size());
  for (const auto& [key, rows] : keys_a) distinct_a.push_back(&key);

  // 2-gram inverted index over A keys of length >= 2d (for those, ED <= d
  // guarantees at least one shared padded bigram; shorter keys fall back to
  // a length-bucketed scan).
  std::unordered_map<std::string, std::vector<uint32_t>> gram_index;
  std::unordered_map<size_t, std::vector<uint32_t>> length_index_a;
  for (uint32_t i = 0; i < distinct_a.size(); ++i) {
    const std::string& key = *distinct_a[i];
    length_index_a[key.size()].push_back(i);
    if (key.size() >= 2 * d) {
      std::vector<std::string> grams = PaddedBigrams(key);
      std::unordered_set<std::string> seen;
      for (std::string& gram : grams) {
        if (seen.insert(gram).second) {
          gram_index[gram].push_back(i);
        }
      }
    }
  }

  CandidateSet result;
  auto emit = [&](const std::vector<RowId>& rows_a,
                  const std::vector<RowId>& rows_b) {
    for (RowId row_a : rows_a) {
      for (RowId row_b : rows_b) result.Add(row_a, row_b);
    }
  };

  std::unordered_set<uint32_t> candidates;
  for (const auto& [key_b, rows_b] : keys_b) {
    candidates.clear();
    if (key_b.size() >= 2 * d || d == 0) {
      // Gram-index path: any A key of length >= 2d within distance d shares
      // a bigram with key_b.
      for (const std::string& gram : PaddedBigrams(key_b)) {
        auto it = gram_index.find(gram);
        if (it == gram_index.end()) continue;
        for (uint32_t i : it->second) candidates.insert(i);
      }
    }
    // Short-key fallback: A keys shorter than 2d are not in the gram index;
    // compare key_b against all of them within the length window. Also, if
    // key_b itself is short, compare against every A key in the window (its
    // grams may all have been destroyed).
    size_t lo = key_b.size() > d ? key_b.size() - d : 0;
    size_t hi = key_b.size() + d;
    for (size_t len = lo; len <= hi; ++len) {
      auto it = length_index_a.find(len);
      if (it == length_index_a.end()) continue;
      if (key_b.size() < 2 * d) {
        for (uint32_t i : it->second) candidates.insert(i);
      } else if (len < 2 * d) {
        for (uint32_t i : it->second) candidates.insert(i);
      }
    }
    for (uint32_t i : candidates) {
      const std::string& key_a = *distinct_a[i];
      size_t len_diff = key_a.size() > key_b.size()
                            ? key_a.size() - key_b.size()
                            : key_b.size() - key_a.size();
      if (len_diff > d) continue;
      if (BoundedEditDistance(key_a, key_b, d) <= d) {
        emit(keys_a.find(key_a)->second, rows_b);
      }
    }
  }
  return result;
}

CandidateSet EnumerateSortedNeighborhood(const Table& table_a,
                                         const Table& table_b,
                                         const KeyFunction& key,
                                         size_t window) {
  MC_CHECK_GE(window, 2u) << "sorted neighborhood needs window >= 2";
  struct Entry {
    std::string key;
    RowId row;
    bool from_a;
  };
  std::vector<Entry> entries;
  entries.reserve(table_a.num_rows() + table_b.num_rows());
  for (size_t row = 0; row < table_a.num_rows(); ++row) {
    std::optional<std::string> value = key.Apply(table_a, row);
    if (!value.has_value()) continue;
    entries.push_back({std::move(*value), static_cast<RowId>(row), true});
  }
  for (size_t row = 0; row < table_b.num_rows(); ++row) {
    std::optional<std::string> value = key.Apply(table_b, row);
    if (!value.has_value()) continue;
    entries.push_back({std::move(*value), static_cast<RowId>(row), false});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& x, const Entry& y) { return x.key < y.key; });

  CandidateSet result;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size() && j < i + window; ++j) {
      if (entries[i].from_a == entries[j].from_a) continue;
      if (entries[i].from_a) {
        result.Add(entries[i].row, entries[j].row);
      } else {
        result.Add(entries[j].row, entries[i].row);
      }
    }
  }
  return result;
}

}  // namespace mc
