#ifndef MATCHCATCHER_TABLE_PROFILE_H_
#define MATCHCATCHER_TABLE_PROFILE_H_

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "table/table.h"

namespace mc {

/// Per-attribute statistics feeding the config generator (Def. 3.1 and the
/// long-attribute procedure of §3.2).
struct AttributeProfile {
  /// n(f): fraction of tuples with a non-missing value for f.
  double non_missing_ratio = 0.0;
  /// u(f): distinct non-missing values over non-missing values.
  double unique_ratio = 0.0;
  /// AL_f: average number of word tokens over all tuples (missing = 0).
  double average_token_length = 0.0;
  /// Distinct normalized values (capped; see kMaxDistinctTracked).
  std::unordered_set<std::string> distinct_values;
  /// True when distinct_values hit the cap and was abandoned.
  bool distinct_values_truncated = false;

  static constexpr size_t kMaxDistinctTracked = 4096;

  /// e_T(f) = 2 n(f) u(f) / (n(f) + u(f)) — the harmonic mean from
  /// Def. 3.1 for a single table; 0 when both ratios are 0.
  double SingleTableEScore() const;
};

/// Profiles one attribute of `table`.
AttributeProfile ProfileAttribute(const Table& table, size_t column);

/// Profiles every attribute.
std::vector<AttributeProfile> ProfileTable(const Table& table);

/// Jaccard similarity of the distinct (normalized) value sets of column
/// `column` across the two tables; used to drop categorical/boolean
/// attributes whose appearances differ (§3.2).
double ValueSetJaccard(const AttributeProfile& a, const AttributeProfile& b);

/// Rule-based attribute type classifier (§3.2 "using a rule-based
/// classifier"): numeric when nearly all non-missing values parse as
/// numbers; boolean for tiny truthy vocabularies; categorical for small
/// distinct-value sets of short values; string otherwise. Returns a copy of
/// the schema with inferred types.
Schema InferAttributeTypes(const Table& table);

/// As above, and also stores the profile of every column in `*profiles`
/// (ProfileTable(table), bit for bit). Profiling reads no attribute type,
/// so the profiles stay valid once the inferred schema is set: a session
/// hands them to SelectPromisingAttributes and profiles table A once.
Schema InferAttributeTypes(const Table& table,
                           std::vector<AttributeProfile>* profiles);

}  // namespace mc

#endif  // MATCHCATCHER_TABLE_PROFILE_H_
