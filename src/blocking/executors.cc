#include "blocking/executors.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "table/tokenized_table.h"
#include "text/similarity.h"
#include "text/string_index.h"
#include "text/token_dictionary.h"
#include "util/check.h"

namespace mc {

namespace {

// Rows of one table bucketed by key id in CSR form, rows ascending within
// a bucket. Ids come from a StringIndex shared by both tables and cover
// the ids it held when the buckets were built; a table may have no rows
// for some of them.
struct KeyBuckets {
  std::vector<uint32_t> offsets;
  std::vector<RowId> rows;

  std::span<const RowId> Rows(uint32_t id) const {
    return {rows.data() + offsets[id], rows.data() + offsets[id + 1]};
  }
};

// Buckets `table`'s rows by their key under `key` (a counting sort over key
// ids). With `intern`, keys new to `keys` are added in first-appearance
// order; without, rows whose key is not in `keys` are dropped, as are rows
// with no key.
KeyBuckets PartitionByKey(const Table& table, const KeyFunction& key,
                          StringIndex& keys, bool intern) {
  std::vector<uint32_t> row_keys(table.num_rows(), StringIndex::kAbsent);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    std::optional<std::string> value = key.Apply(table, row);
    if (!value.has_value()) continue;
    row_keys[row] = intern ? keys.Insert(*value).first : keys.Find(*value);
  }
  KeyBuckets buckets;
  buckets.offsets.assign(keys.size() + 1, 0);
  for (uint32_t id : row_keys) {
    if (id != StringIndex::kAbsent) ++buckets.offsets[id + 1];
  }
  for (size_t id = 0; id < keys.size(); ++id) {
    buckets.offsets[id + 1] += buckets.offsets[id];
  }
  buckets.rows.resize(buckets.offsets.back());
  std::vector<uint32_t> cursor(buckets.offsets.begin(),
                               buckets.offsets.end() - 1);
  for (size_t row = 0; row < row_keys.size(); ++row) {
    if (row_keys[row] == StringIndex::kAbsent) continue;
    buckets.rows[cursor[row_keys[row]]++] = static_cast<RowId>(row);
  }
  return buckets;
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
    grams = plane->QGramsForColumn(table_a, table_b, tokenizer.q, column);
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
  // Per token id, the last cell that counted it: dedups ids within a cell
  // the way Tokens() dedups strings, without building a set per cell.
  std::vector<size_t> last_cell;
  size_t cell = 0;
  std::string scratch;
  auto intern_table = [&](const Table& table, TokenizedColumn* out) {
    out->offsets.reserve(table.num_rows() + 1);
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (!table.IsMissing(row, column)) {
        ++cell;
        ids.clear();
        tokenizer.ForEachToken(
            table.Value(row, column), scratch, [&](std::string_view token) {
              const TokenId id = dictionary.Intern(token);
              if (id == last_cell.size()) last_cell.push_back(0);
              if (last_cell[id] == cell) return;
              last_cell[id] = cell;
              ids.push_back(id);
            });
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

// Intersection size of two sorted id spans if it reaches `alpha`, else
// some count below `alpha`: the merge stops once the overlap so far plus
// the tokens left on the shorter remainder cannot reach `alpha`.
size_t BoundedOverlap(std::span<const TokenId> a, std::span<const TokenId> b,
                      size_t alpha) {
  size_t i = 0, j = 0, overlap = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
      continue;
    }
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
    if (overlap + std::min(a.size() - i, b.size() - j) < alpha) break;
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
// alpha(|x|, |y|) = PairRequired, the least overlap a qualifying pair of
// these sizes can have, is computed once per (A size, B row) and cached in
// a table stamped per B row. The positional filter prunes (x, y) at a
// prefix match x[j] == y[i] when
//   seen + 1 + min(|x| - j - 1, |y| - i - 1) < alpha(|x|, |y|),
// where `seen` counts the earlier matches of the pair; at a row's first
// match it runs before the row becomes a candidate. On q-gram multisets
// repeated tokens make `seen` overcount the true common prefix (every copy
// in y meets every copy in x); the test stays sound because it only needs
// `seen` as an upper bound, and `seen` is never used as the overlap.
//
// Verification rejects overlap < alpha with integer work alone (the merge
// stops as soon as alpha is out of reach) and runs the exact Verify only
// when overlap >= alpha. That is sound because alpha rounds the real bound
// down by the same slack as every other filter here, so it never exceeds
// the overlap of a pair Verify accepts.
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
  size_t max_size_a = 0;
  for (size_t row = 0; row < rows_a; ++row) {
    std::span<const TokenId> tokens = a.Row(row);
    const size_t prefix = prefix_length(tokens.size());
    for (size_t i = 0; i < prefix; ++i) {
      num_tokens = std::max<size_t>(num_tokens, tokens[i] + size_t{1});
    }
    num_postings += prefix;
    max_size_a = std::max(max_size_a, tokens.size());
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

  // Per-A-row probe state and per-A-size alpha, each valid for the B row
  // whose id is in its `stamp` (stamping replaces clearing per B row).
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  static constexpr uint32_t kPruned = ~uint32_t{0};
  struct Probe {
    uint32_t stamp = kNoRow;
    uint32_t seen = 0;  // kPruned once the positional filter fires.
  };
  struct SizeAlpha {
    uint32_t stamp = kNoRow;
    uint32_t alpha = 0;
  };
  std::vector<Probe> probes(rows_a);
  std::vector<SizeAlpha> alpha_by_size(max_size_a + 1);
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
    size_t max_size_a_for_b = SIZE_MAX;
    if (ratio > 0.0) {
      min_size_a = OverlapBounds::CeilConservative(ratio * size_b);
      max_size_a_for_b = static_cast<size_t>(
          std::floor(static_cast<double>(size_b) / ratio + 1e-9));
    }
    const uint32_t stamp = static_cast<uint32_t>(row_b);
    candidates.clear();
    for (size_t i = 0; i < prefix_b; ++i) {
      const TokenId token = tokens_b[i];
      if (token >= num_tokens) continue;
      for (uint64_t p = offsets[token]; p < offsets[token + 1]; ++p) {
        const Posting posting = postings[p];
        if (posting.size < min_size_a || posting.size > max_size_a_for_b) {
          continue;
        }
        Probe& probe = probes[posting.row];
        const bool first_visit = probe.stamp != stamp;
        if (!first_visit && probe.seen == kPruned) continue;
        SizeAlpha& alpha = alpha_by_size[posting.size];
        if (alpha.stamp != stamp) {
          alpha.stamp = stamp;
          alpha.alpha = static_cast<uint32_t>(
              bounds.PairRequired(posting.size, size_b));
        }
        if (first_visit) {
          probe.stamp = stamp;
          probe.seen = 0;
        }
        const size_t rest = std::min<size_t>(
            posting.size - posting.position - 1, size_b - i - 1);
        if (probe.seen + 1 + rest < alpha.alpha) {
          probe.seen = kPruned;
        } else {
          if (first_visit) candidates.push_back(posting.row);
          ++probe.seen;
        }
      }
    }
    for (RowId row_a : candidates) {
      if (probes[row_a].seen == kPruned) continue;
      std::span<const TokenId> tokens_a = a.Row(row_a);
      const size_t alpha = alpha_by_size[tokens_a.size()].alpha;
      const size_t overlap = BoundedOverlap(tokens_a, tokens_b, alpha);
      if (overlap >= alpha && bounds.Verify(tokens_a.size(), size_b, overlap)) {
        result.Add(row_a, static_cast<RowId>(row_b));
      }
    }
  }
  return result;
}

// All padded 2-grams of `key`, *with duplicates* (the count-filter theorem
// for edit distance is stated over gram multisets).
std::vector<std::string> PaddedBigrams(std::string_view key) {
  std::string padded = "#";
  padded.append(key).push_back('#');
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
  StringIndex keys;
  const KeyBuckets buckets_a = PartitionByKey(table_a, key, keys, true);
  const KeyBuckets buckets_b = PartitionByKey(table_b, key, keys, false);
  // Pre-size from the exact output size, the sum over keys of |A_k|*|B_k|.
  size_t total = 0;
  for (uint32_t id = 0; id < keys.size(); ++id) {
    total += buckets_a.Rows(id).size() * buckets_b.Rows(id).size();
  }
  CandidateSet result;
  result.Reserve(total);
  for (uint32_t id = 0; id < keys.size(); ++id) {
    for (RowId row_a : buckets_a.Rows(id)) {
      for (RowId row_b : buckets_b.Rows(id)) result.Add(row_a, row_b);
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
  // A's keys take ids [0, num_buckets_a); B's keys not in A follow.
  StringIndex keys;
  const KeyBuckets buckets_a = PartitionByKey(table_a, predicate.key(), keys,
                                           true);
  const uint32_t num_buckets_a = static_cast<uint32_t>(keys.size());
  const KeyBuckets buckets_b = PartitionByKey(table_b, predicate.key(), keys,
                                           true);

  // 2-gram inverted index over A keys of length >= 2d (for those, ED <= d
  // guarantees at least one shared padded bigram; shorter keys fall back to
  // a length-bucketed scan).
  std::unordered_map<std::string, std::vector<uint32_t>> gram_index;
  std::unordered_map<size_t, std::vector<uint32_t>> length_index_a;
  for (uint32_t i = 0; i < num_buckets_a; ++i) {
    std::string_view key = keys.KeyOf(i);
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
  std::unordered_set<uint32_t> candidates;
  for (uint32_t id_b = 0; id_b < keys.size(); ++id_b) {
    const std::span<const RowId> rows_b = buckets_b.Rows(id_b);
    if (rows_b.empty()) continue;
    std::string_view key_b = keys.KeyOf(id_b);
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
      std::string_view key_a = keys.KeyOf(i);
      size_t len_diff = key_a.size() > key_b.size()
                            ? key_a.size() - key_b.size()
                            : key_b.size() - key_a.size();
      if (len_diff > d) continue;
      if (BoundedEditDistance(key_a, key_b, d) <= d) {
        for (RowId row_a : buckets_a.Rows(i)) {
          for (RowId row_b : rows_b) result.Add(row_a, row_b);
        }
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
