#include "table/profile.h"

#include <algorithm>
#include <string_view>

#include "table/tokenized_table.h"
#include "text/normalize.h"
#include "text/string_index.h"
#include "text/tokenize.h"

namespace mc {

double AttributeProfile::SingleTableEScore() const {
  const double n = non_missing_ratio;
  const double u = unique_ratio;
  if (n + u <= 0.0) return 0.0;
  return 2.0 * n * u / (n + u);
}

AttributeProfile ProfileAttribute(const Table& table, size_t column) {
  AttributeProfile profile;
  const size_t rows = table.num_rows();
  if (rows == 0) return profile;

  size_t non_missing = 0;
  size_t total_tokens = 0;
  // Token counts come from the text plane when one is attached. Values
  // dedup on the raw cell and only unseen raw values are normalized: equal
  // raw values normalize equally, so the distinct set grows as if every
  // row were inserted and hits its cap on the same row.
  const TokenizedTable* plane = AttachedTextPlane(table);
  const size_t side = table.text_plane_side();
  StringIndex seen_raw;  // Flat: no heap node per value.
  std::string normalized;
  for (size_t r = 0; r < rows; ++r) {
    if (table.IsMissing(r, column)) continue;
    ++non_missing;
    const std::string_view raw = table.Value(r, column);
    const bool unseen =
        !profile.distinct_values_truncated && seen_raw.Insert(raw).second;
    if (unseen || plane == nullptr) NormalizeForTokensInto(raw, normalized);
    total_tokens += plane != nullptr ? plane->TokenCount(side, r, column)
                                     : WordTokens(normalized).size();
    if (unseen) {
      profile.distinct_values.emplace(TrimWhitespace(normalized));
      if (profile.distinct_values.size() >
          AttributeProfile::kMaxDistinctTracked) {
        profile.distinct_values_truncated = true;
      }
    }
  }
  profile.non_missing_ratio = static_cast<double>(non_missing) / rows;
  profile.unique_ratio =
      non_missing == 0 ? 0.0
                       : static_cast<double>(profile.distinct_values.size()) /
                             non_missing;
  if (profile.distinct_values_truncated) {
    // With the cap hit, the unique ratio is a lower bound; attributes this
    // diverse are effectively fully unique for e-score purposes.
    profile.unique_ratio = std::min(1.0, profile.unique_ratio * 2.0);
  }
  profile.average_token_length = static_cast<double>(total_tokens) / rows;
  return profile;
}

std::vector<AttributeProfile> ProfileTable(const Table& table) {
  std::vector<AttributeProfile> profiles;
  profiles.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    profiles.push_back(ProfileAttribute(table, c));
  }
  return profiles;
}

double ValueSetJaccard(const AttributeProfile& a, const AttributeProfile& b) {
  if (a.distinct_values.empty() && b.distinct_values.empty()) return 1.0;
  size_t overlap = 0;
  const auto& small = a.distinct_values.size() <= b.distinct_values.size()
                          ? a.distinct_values
                          : b.distinct_values;
  const auto& large = a.distinct_values.size() <= b.distinct_values.size()
                          ? b.distinct_values
                          : a.distinct_values;
  for (const std::string& value : small) {
    if (large.count(value) > 0) ++overlap;
  }
  size_t union_size =
      a.distinct_values.size() + b.distinct_values.size() - overlap;
  return union_size == 0 ? 1.0
                         : static_cast<double>(overlap) / union_size;
}

namespace {

bool LooksBoolean(const std::unordered_set<std::string>& values) {
  static const char* const kBooleanLexicon[] = {
      "true", "false", "yes", "no", "y", "n", "t", "f", "0", "1", "m",
  };
  if (values.empty() || values.size() > 4) return false;
  for (const std::string& value : values) {
    bool known = false;
    for (const char* lexeme : kBooleanLexicon) {
      if (value == lexeme) {
        known = true;
        break;
      }
    }
    if (!known) return false;
  }
  return true;
}

AttributeType ClassifyColumn(const Table& table, size_t column,
                             const AttributeProfile& profile) {
  const size_t rows = table.num_rows();
  size_t non_missing = 0;
  size_t numeric = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (table.IsMissing(r, column)) continue;
    ++non_missing;
    if (table.NumericValue(r, column).has_value()) ++numeric;
  }
  if (non_missing > 0 &&
      static_cast<double>(numeric) / non_missing >= 0.9) {
    return AttributeType::kNumeric;
  }
  if (LooksBoolean(profile.distinct_values)) return AttributeType::kBoolean;
  // Categorical: few distinct short values relative to table size.
  const size_t distinct = profile.distinct_values.size();
  const bool few_distinct =
      !profile.distinct_values_truncated &&
      distinct <= std::max<size_t>(12, non_missing / 20);
  if (few_distinct && non_missing >= 2 * distinct &&
      profile.average_token_length <= 3.0) {
    return AttributeType::kCategorical;
  }
  return AttributeType::kString;
}

}  // namespace

Schema InferAttributeTypes(const Table& table) {
  std::vector<AttributeProfile> profiles;
  return InferAttributeTypes(table, &profiles);
}

Schema InferAttributeTypes(const Table& table,
                           std::vector<AttributeProfile>* profiles) {
  std::vector<Attribute> attributes = table.schema().attributes();
  profiles->clear();
  profiles->reserve(attributes.size());
  // Classify each column right after profiling it, while its cells are
  // still in cache.
  for (size_t c = 0; c < attributes.size(); ++c) {
    profiles->push_back(ProfileAttribute(table, c));
    attributes[c].type = ClassifyColumn(table, c, profiles->back());
  }
  return Schema(std::move(attributes));
}

}  // namespace mc
