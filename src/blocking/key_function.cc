#include "blocking/key_function.h"

#include <cmath>
#include <cstdint>

#include "table/tokenized_table.h"
#include "text/normalize.h"
#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/check.h"

namespace mc {

std::optional<std::string> KeyFunction::Apply(const Table& table,
                                              size_t row) const {
  if (table.IsMissing(row, column_)) return std::nullopt;
  const TokenizedTable* plane = AttachedTextPlane(table);
  if (plane != nullptr) {
    // Word tokens are precomputed in the plane; the other kinds need the
    // raw or normalized cell and fall through to the string path.
    const size_t side = table.text_plane_side();
    switch (kind_) {
      case Kind::kLastWord: {
        std::string_view word = plane->LastTokenOf(side, row, column_);
        if (word.empty()) return std::nullopt;
        return std::string(word);
      }
      case Kind::kFirstWord: {
        std::string_view word = plane->FirstTokenOf(side, row, column_);
        if (word.empty()) return std::nullopt;
        return std::string(word);
      }
      default:
        break;
    }
  }
  std::string_view raw = table.Value(row, column_);
  switch (kind_) {
    case Kind::kFullValue: {
      std::string normalized(TrimWhitespace(NormalizeForTokens(raw)));
      if (normalized.empty()) return std::nullopt;
      return normalized;
    }
    case Kind::kRawValue: {
      std::string trimmed(TrimWhitespace(raw));
      if (trimmed.empty()) return std::nullopt;
      return trimmed;
    }
    case Kind::kLastWord: {
      std::string word = LastWordToken(raw);
      if (word.empty()) return std::nullopt;
      return word;
    }
    case Kind::kFirstWord: {
      std::string word = FirstWordToken(raw);
      if (word.empty()) return std::nullopt;
      return word;
    }
    case Kind::kSoundex: {
      std::string code = Soundex(raw);
      if (code.empty()) return std::nullopt;
      return code;
    }
    case Kind::kPrefix: {
      std::string normalized(TrimWhitespace(NormalizeForTokens(raw)));
      if (normalized.empty()) return std::nullopt;
      return normalized.substr(0, param_);
    }
    case Kind::kNumericBucket: {
      std::optional<double> value = table.NumericValue(row, column_);
      if (!value.has_value()) return std::nullopt;
      MC_CHECK_GE(param_, 1u);
      int64_t bucket = static_cast<int64_t>(
          std::floor(*value / static_cast<double>(param_)));
      return std::to_string(bucket);
    }
  }
  return std::nullopt;
}

std::string KeyFunction::Description(const Schema& schema) const {
  const std::string& attr = schema.attribute(column_).name;
  switch (kind_) {
    case Kind::kFullValue:
      return attr;
    case Kind::kRawValue:
      return "raw(" + attr + ")";
    case Kind::kLastWord:
      return "lastword(" + attr + ")";
    case Kind::kFirstWord:
      return "firstword(" + attr + ")";
    case Kind::kSoundex:
      return "soundex(" + attr + ")";
    case Kind::kPrefix:
      return "prefix" + std::to_string(param_) + "(" + attr + ")";
    case Kind::kNumericBucket:
      return "bucket" + std::to_string(param_) + "(" + attr + ")";
  }
  return attr;
}

}  // namespace mc
