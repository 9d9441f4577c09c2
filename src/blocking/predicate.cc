#include "blocking/predicate.h"

#include <cmath>
#include <sstream>

#include "table/tokenized_table.h"
#include "text/tokenize.h"

namespace mc {

namespace {

// Token counts and overlap of a cell pair straight from the shared text
// plane (no per-call tokenization). Returns false — meaning "use the string
// path" — when the tables don't share a plane or the q-gram plane for this
// column is unavailable.
bool PlaneTokenCounts(const Table& table_a, size_t row_a, const Table& table_b,
                      size_t row_b, size_t column,
                      const TokenizerSpec& tokenizer, size_t* size_a,
                      size_t* size_b, size_t* overlap) {
  const TokenizedTable* plane = SharedTextPlane(table_a, table_b);
  if (plane == nullptr) return false;
  const size_t side_a = table_a.text_plane_side();
  const size_t side_b = table_b.text_plane_side();
  switch (tokenizer.kind) {
    case TokenizerSpec::Kind::kWord: {
      CellSpan a = plane->SortedRanks(side_a, row_a, column);
      CellSpan b = plane->SortedRanks(side_b, row_b, column);
      *size_a = a.size();
      *size_b = b.size();
      *overlap = SortedSpanOverlap(a, b);
      return true;
    }
    case TokenizerSpec::Kind::kQGram: {
      const TokenizedTable::QGramColumn* grams =
          plane->QGramsForColumn(table_a, table_b, tokenizer.q, column);
      if (grams == nullptr) return false;
      CellSpan a = grams->Row(side_a, row_a);
      CellSpan b = grams->Row(side_b, row_b);
      *size_a = a.size();
      *size_b = b.size();
      *overlap = SortedSpanOverlap(a, b);
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<std::string> TokenizerSpec::Tokens(std::string_view text) const {
  switch (kind) {
    case Kind::kWord:
      return DistinctWordTokens(text);
    case Kind::kQGram:
      return QGrams(text, q);
  }
  return {};
}

std::string TokenizerSpec::Description() const {
  switch (kind) {
    case Kind::kWord:
      return "word";
    case Kind::kQGram:
      return std::to_string(q) + "gram";
  }
  return "word";
}

bool KeyEqualityPredicate::Evaluate(const Table& table_a, size_t row_a,
                                    const Table& table_b,
                                    size_t row_b) const {
  std::optional<std::string> key_a = key_.Apply(table_a, row_a);
  if (!key_a.has_value()) return false;
  std::optional<std::string> key_b = key_.Apply(table_b, row_b);
  return key_b.has_value() && *key_a == *key_b;
}

std::string KeyEqualityPredicate::Description(const Schema& schema) const {
  std::string key = key_.Description(schema);
  return "a." + key + " = b." + key;
}

bool SetSimilarityPredicate::Evaluate(const Table& table_a, size_t row_a,
                                      const Table& table_b,
                                      size_t row_b) const {
  if (table_a.IsMissing(row_a, column_) || table_b.IsMissing(row_b, column_)) {
    return false;
  }
  size_t size_a = 0;
  size_t size_b = 0;
  size_t overlap = 0;
  if (!PlaneTokenCounts(table_a, row_a, table_b, row_b, column_, tokenizer_,
                        &size_a, &size_b, &overlap)) {
    std::vector<std::string> tokens_a =
        tokenizer_.Tokens(table_a.Value(row_a, column_));
    std::vector<std::string> tokens_b =
        tokenizer_.Tokens(table_b.Value(row_b, column_));
    size_a = tokens_a.size();
    size_b = tokens_b.size();
    overlap = OverlapSize(tokens_a, tokens_b);
  }
  double score = SetSimilarityFromCounts(measure_, size_a, size_b, overlap);
  return score >= threshold_;
}

std::string SetSimilarityPredicate::Description(const Schema& schema) const {
  std::ostringstream out;
  out << SetMeasureName(measure_) << "_" << tokenizer_.Description() << "("
      << schema.attribute(column_).name << ") >= " << threshold_;
  return out.str();
}

bool OverlapPredicate::Evaluate(const Table& table_a, size_t row_a,
                                const Table& table_b, size_t row_b) const {
  if (table_a.IsMissing(row_a, column_) || table_b.IsMissing(row_b, column_)) {
    return false;
  }
  size_t size_a = 0;
  size_t size_b = 0;
  size_t overlap = 0;
  if (!PlaneTokenCounts(table_a, row_a, table_b, row_b, column_, tokenizer_,
                        &size_a, &size_b, &overlap)) {
    std::vector<std::string> tokens_a =
        tokenizer_.Tokens(table_a.Value(row_a, column_));
    std::vector<std::string> tokens_b =
        tokenizer_.Tokens(table_b.Value(row_b, column_));
    overlap = OverlapSize(tokens_a, tokens_b);
  }
  return overlap >= min_overlap_;
}

std::string OverlapPredicate::Description(const Schema& schema) const {
  std::ostringstream out;
  out << "overlap_" << tokenizer_.Description() << "("
      << schema.attribute(column_).name << ") >= " << min_overlap_;
  return out.str();
}

bool EditDistancePredicate::Evaluate(const Table& table_a, size_t row_a,
                                     const Table& table_b,
                                     size_t row_b) const {
  std::optional<std::string> key_a = key_.Apply(table_a, row_a);
  if (!key_a.has_value()) return false;
  std::optional<std::string> key_b = key_.Apply(table_b, row_b);
  if (!key_b.has_value()) return false;
  return BoundedEditDistance(*key_a, *key_b, max_distance_) <= max_distance_;
}

std::string EditDistancePredicate::Description(const Schema& schema) const {
  std::ostringstream out;
  std::string key = key_.Description(schema);
  out << "ed(a." << key << ", b." << key << ") <= " << max_distance_;
  return out.str();
}

bool NumericDiffPredicate::Evaluate(const Table& table_a, size_t row_a,
                                    const Table& table_b,
                                    size_t row_b) const {
  std::optional<double> value_a = table_a.NumericValue(row_a, column_);
  if (!value_a.has_value()) return false;
  std::optional<double> value_b = table_b.NumericValue(row_b, column_);
  if (!value_b.has_value()) return false;
  return std::abs(*value_a - *value_b) <= max_abs_diff_;
}

std::string NumericDiffPredicate::Description(const Schema& schema) const {
  std::ostringstream out;
  out << "absdiff(" << schema.attribute(column_).name
      << ") <= " << max_abs_diff_;
  return out.str();
}

}  // namespace mc
