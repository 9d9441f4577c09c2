#ifndef MATCHCATCHER_BLOCKING_PREDICATE_H_
#define MATCHCATCHER_BLOCKING_PREDICATE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "blocking/key_function.h"
#include "table/table.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace mc {

/// How a cell value is tokenized for set-based predicates.
struct TokenizerSpec {
  enum class Kind { kWord, kQGram };

  Kind kind = Kind::kWord;
  /// Gram size; only meaningful for kQGram.
  size_t q = 3;

  /// Distinct tokens of `text` under this spec.
  std::vector<std::string> Tokens(std::string_view text) const;

  /// Calls `fn(std::string_view)` for every token of `text` under this
  /// spec, in order and with repeats (Tokens() is the distinct
  /// subsequence). Views point into `scratch`, reused across calls.
  template <typename Fn>
  void ForEachToken(std::string_view text, std::string& scratch,
                    Fn&& fn) const {
    if (kind == Kind::kQGram) {
      ForEachQGram(text, q, scratch, fn);
    } else {
      ForEachWordToken(text, scratch, fn);
    }
  }

  /// "word" or "<q>gram".
  std::string Description() const;

  static TokenizerSpec Word() { return TokenizerSpec{Kind::kWord, 0}; }
  static TokenizerSpec QGram(size_t q) {
    return TokenizerSpec{Kind::kQGram, q};
  }
};

/// A boolean *keep* condition over a tuple pair. Rule blockers are unions of
/// conjunctions of these; the naive reference executor evaluates them over
/// all of A x B. A predicate involving a missing value evaluates to false
/// (missing keys match nothing — the standard blocking behaviour, and the
/// source of several of the blocker problems the paper's users uncovered).
class PairPredicate {
 public:
  virtual ~PairPredicate() = default;

  virtual bool Evaluate(const Table& table_a, size_t row_a,
                        const Table& table_b, size_t row_b) const = 0;

  /// Human-readable form, e.g. "jaccard_word(title) >= 0.4".
  virtual std::string Description(const Schema& schema) const = 0;
};

/// Keep iff both key values exist and are equal (hash / attribute
/// equivalence semantics).
class KeyEqualityPredicate : public PairPredicate {
 public:
  explicit KeyEqualityPredicate(KeyFunction key) : key_(std::move(key)) {}

  bool Evaluate(const Table& table_a, size_t row_a, const Table& table_b,
                size_t row_b) const override;
  std::string Description(const Schema& schema) const override;

  const KeyFunction& key() const { return key_; }

 private:
  KeyFunction key_;
};

/// Keep iff measure(tokens(a.attr), tokens(b.attr)) >= threshold.
class SetSimilarityPredicate : public PairPredicate {
 public:
  SetSimilarityPredicate(size_t column, TokenizerSpec tokenizer,
                         SetMeasure measure, double threshold)
      : column_(column),
        tokenizer_(tokenizer),
        measure_(measure),
        threshold_(threshold) {}

  bool Evaluate(const Table& table_a, size_t row_a, const Table& table_b,
                size_t row_b) const override;
  std::string Description(const Schema& schema) const override;

  size_t column() const { return column_; }
  const TokenizerSpec& tokenizer() const { return tokenizer_; }
  SetMeasure measure() const { return measure_; }
  double threshold() const { return threshold_; }

 private:
  size_t column_;
  TokenizerSpec tokenizer_;
  SetMeasure measure_;
  double threshold_;
};

/// Keep iff |tokens(a.attr) ∩ tokens(b.attr)| >= min_overlap.
class OverlapPredicate : public PairPredicate {
 public:
  OverlapPredicate(size_t column, TokenizerSpec tokenizer, size_t min_overlap)
      : column_(column), tokenizer_(tokenizer), min_overlap_(min_overlap) {}

  bool Evaluate(const Table& table_a, size_t row_a, const Table& table_b,
                size_t row_b) const override;
  std::string Description(const Schema& schema) const override;

  size_t column() const { return column_; }
  const TokenizerSpec& tokenizer() const { return tokenizer_; }
  size_t min_overlap() const { return min_overlap_; }

 private:
  size_t column_;
  TokenizerSpec tokenizer_;
  size_t min_overlap_;
};

/// Keep iff ed(key(a), key(b)) <= max_distance (both keys present), e.g.
/// ed(lastword(a.Name), lastword(b.Name)) <= 2 from the paper's Example 1.1.
class EditDistancePredicate : public PairPredicate {
 public:
  EditDistancePredicate(KeyFunction key, size_t max_distance)
      : key_(std::move(key)), max_distance_(max_distance) {}

  bool Evaluate(const Table& table_a, size_t row_a, const Table& table_b,
                size_t row_b) const override;
  std::string Description(const Schema& schema) const override;

  const KeyFunction& key() const { return key_; }
  size_t max_distance() const { return max_distance_; }

 private:
  KeyFunction key_;
  size_t max_distance_;
};

/// Keep iff both numeric values exist and |a - b| <= max_abs_diff.
class NumericDiffPredicate : public PairPredicate {
 public:
  NumericDiffPredicate(size_t column, double max_abs_diff)
      : column_(column), max_abs_diff_(max_abs_diff) {}

  bool Evaluate(const Table& table_a, size_t row_a, const Table& table_b,
                size_t row_b) const override;
  std::string Description(const Schema& schema) const override;

  size_t column() const { return column_; }
  double max_abs_diff() const { return max_abs_diff_; }

 private:
  size_t column_;
  double max_abs_diff_;
};

}  // namespace mc

#endif  // MATCHCATCHER_BLOCKING_PREDICATE_H_
