#include "blocking/rule_blocker.h"

#include <algorithm>
#include <cstddef>

#include "blocking/executors.h"
#include "util/check.h"
#include "util/random.h"

namespace mc {

std::string ConjunctiveRule::Description(const Schema& schema) const {
  std::string out;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += predicates_[i]->Description(schema);
  }
  return out;
}

namespace {

// Heuristic selectivity score of a predicate as an enumeration anchor:
// higher = expected to enumerate fewer candidates. Key equality is the most
// selective (hash partition); similarity thresholds get more selective as
// the threshold rises; a 1-token overlap is barely a filter at all.
// Non-indexable predicates score negative.
double AnchorScore(const PairPredicate* predicate) {
  if (dynamic_cast<const KeyEqualityPredicate*>(predicate) != nullptr) {
    return 100.0;
  }
  if (const auto* edit =
          dynamic_cast<const EditDistancePredicate*>(predicate)) {
    return 90.0 - static_cast<double>(edit->max_distance());
  }
  if (const auto* similarity =
          dynamic_cast<const SetSimilarityPredicate*>(predicate)) {
    return 10.0 + similarity->threshold() * 50.0;
  }
  if (const auto* overlap =
          dynamic_cast<const OverlapPredicate*>(predicate)) {
    return std::min<double>(static_cast<double>(overlap->min_overlap()),
                            9.0);
  }
  return -1.0;
}

// Runs the enumeration anchor for predicate index `anchor` of `rule`, or
// returns false if that predicate is not indexable.
bool TryEnumerate(const ConjunctiveRule& rule, size_t anchor,
                  const Table& table_a, const Table& table_b,
                  CandidateSet* candidates) {
  const PairPredicate* predicate = rule.predicates()[anchor].get();
  if (const auto* key_eq =
          dynamic_cast<const KeyEqualityPredicate*>(predicate)) {
    *candidates = EnumerateKeyEquality(table_a, table_b, key_eq->key());
    return true;
  }
  if (const auto* similarity =
          dynamic_cast<const SetSimilarityPredicate*>(predicate)) {
    *candidates = EnumerateSetSimilarity(table_a, table_b, *similarity);
    return true;
  }
  if (const auto* overlap =
          dynamic_cast<const OverlapPredicate*>(predicate)) {
    *candidates = EnumerateOverlap(table_a, table_b, *overlap);
    return true;
  }
  if (const auto* edit =
          dynamic_cast<const EditDistancePredicate*>(predicate)) {
    *candidates = EnumerateEditDistanceKeys(table_a, table_b, *edit);
    return true;
  }
  return false;
}

}  // namespace

CandidateSet RuleBlocker::Run(const Table& table_a,
                              const Table& table_b) const {
  CandidateSet result;
  for (const ConjunctiveRule& rule : rules_) {
    CandidateSet candidates;
    // Anchor on the most selective indexable conjunct. Selectivity is
    // measured on a random-pair sample (an unselective anchor — say, key
    // equality on a 14-value attribute — would enumerate millions of
    // candidates only to have the residual conjuncts discard them); the
    // static kind-based score breaks ties among conjuncts the sample
    // cannot distinguish (both ~0 keep rate).
    size_t anchor = rule.predicates().size();
    double best_rate = 2.0;
    double best_static = -1.0;
    constexpr size_t kSelectivitySample = 1500;
    Rng sample_rng(0x5eedf00dULL + rule.predicates().size());
    std::vector<std::pair<size_t, size_t>> sample;
    if (table_a.num_rows() > 0 && table_b.num_rows() > 0) {
      sample.reserve(kSelectivitySample);
      for (size_t s = 0; s < kSelectivitySample; ++s) {
        sample.emplace_back(sample_rng.NextBelow(table_a.num_rows()),
                            sample_rng.NextBelow(table_b.num_rows()));
      }
    }
    for (size_t i = 0; i < rule.predicates().size(); ++i) {
      double static_score = AnchorScore(rule.predicates()[i].get());
      if (static_score < 0.0) continue;  // Not indexable.
      size_t kept = 0;
      for (const auto& [row_a, row_b] : sample) {
        if (rule.predicates()[i]->Evaluate(table_a, row_a, table_b,
                                           row_b)) {
          ++kept;
        }
      }
      double rate = sample.empty()
                        ? 0.0
                        : static_cast<double>(kept) / sample.size();
      if (anchor == rule.predicates().size() || rate < best_rate ||
          (rate == best_rate && static_score > best_static)) {
        anchor = i;
        best_rate = rate;
        best_static = static_score;
      }
    }
    if (anchor < rule.predicates().size()) {
      bool enumerated =
          TryEnumerate(rule, anchor, table_a, table_b, &candidates);
      MC_CHECK(enumerated);
    }
    if (anchor == rule.predicates().size()) {
      // No indexable anchor: naive scan.
      for (size_t a = 0; a < table_a.num_rows(); ++a) {
        for (size_t b = 0; b < table_b.num_rows(); ++b) {
          if (rule.Evaluate(table_a, a, table_b, b)) {
            result.Add(static_cast<RowId>(a), static_cast<RowId>(b));
          }
        }
      }
      continue;
    }
    // Verify the residual conjuncts on the anchor's candidates.
    for (PairId pair : candidates) {
      RowId row_a = PairRowA(pair);
      RowId row_b = PairRowB(pair);
      bool keep = true;
      for (size_t i = 0; i < rule.predicates().size() && keep; ++i) {
        if (i == anchor) continue;
        keep = rule.predicates()[i]->Evaluate(table_a, row_a, table_b, row_b);
      }
      if (keep) result.Add(pair);
    }
  }
  return result;
}

std::string RuleBlocker::Description(const Schema& schema) const {
  std::string out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (i > 0) out += " OR ";
    out += '(';
    out += rules_[i].Description(schema);
    out += ')';
  }
  return out;
}

}  // namespace mc
