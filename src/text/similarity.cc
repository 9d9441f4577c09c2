#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "text/tokenize.h"
#include "util/check.h"

namespace mc {

namespace {

// Deduplicated view of `tokens` as a hash set.
std::unordered_set<std::string_view> ToSet(
    const std::vector<std::string>& tokens) {
  std::unordered_set<std::string_view> set;
  set.reserve(tokens.size());
  for (const std::string& token : tokens) set.insert(token);
  return set;
}

}  // namespace

size_t OverlapSize(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  const std::vector<std::string>& small = a.size() <= b.size() ? a : b;
  const std::vector<std::string>& large = a.size() <= b.size() ? b : a;
  std::unordered_set<std::string_view> small_set = ToSet(small);
  std::unordered_set<std::string_view> large_set = ToSet(large);
  size_t overlap = 0;
  for (std::string_view token : small_set) {
    if (large_set.count(token) > 0) ++overlap;
  }
  return overlap;
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> sa = ToSet(a);
  std::unordered_set<std::string_view> sb = ToSet(b);
  size_t overlap = 0;
  for (std::string_view token : sa) {
    if (sb.count(token) > 0) ++overlap;
  }
  return SetSimilarityFromCounts(SetMeasure::kJaccard, sa.size(), sb.size(),
                                 overlap);
}

double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> sa = ToSet(a);
  std::unordered_set<std::string_view> sb = ToSet(b);
  size_t overlap = 0;
  for (std::string_view token : sa) {
    if (sb.count(token) > 0) ++overlap;
  }
  return SetSimilarityFromCounts(SetMeasure::kCosine, sa.size(), sb.size(),
                                 overlap);
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> sa = ToSet(a);
  std::unordered_set<std::string_view> sb = ToSet(b);
  size_t overlap = 0;
  for (std::string_view token : sa) {
    if (sb.count(token) > 0) ++overlap;
  }
  return SetSimilarityFromCounts(SetMeasure::kDice, sa.size(), sb.size(),
                                 overlap);
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> sa = ToSet(a);
  std::unordered_set<std::string_view> sb = ToSet(b);
  size_t overlap = 0;
  for (std::string_view token : sa) {
    if (sb.count(token) > 0) ++overlap;
  }
  return SetSimilarityFromCounts(SetMeasure::kOverlapCoefficient, sa.size(),
                                 sb.size(), overlap);
}

double WordJaccard(std::string_view a, std::string_view b) {
  return JaccardSimilarity(DistinctWordTokens(a), DistinctWordTokens(b));
}

double QGramJaccard(std::string_view a, std::string_view b, size_t q) {
  std::string scratch;
  std::vector<uint32_t> codes_a;
  std::vector<uint32_t> codes_b;
  AppendQGramCodes(a, q, scratch, codes_a);
  AppendQGramCodes(b, q, scratch, codes_b);
  size_t overlap = 0;
  auto it_a = codes_a.begin();
  auto it_b = codes_b.begin();
  while (it_a != codes_a.end() && it_b != codes_b.end()) {
    if (*it_a < *it_b) {
      ++it_a;
    } else if (*it_b < *it_a) {
      ++it_b;
    } else {
      ++overlap;
      ++it_a;
      ++it_b;
    }
  }
  return SetSimilarityFromCounts(SetMeasure::kJaccard, codes_a.size(),
                                 codes_b.size(), overlap);
}

double WordCosine(std::string_view a, std::string_view b) {
  return CosineSimilarity(DistinctWordTokens(a), DistinctWordTokens(b));
}

size_t WordOverlapSize(std::string_view a, std::string_view b) {
  return OverlapSize(DistinctWordTokens(a), DistinctWordTokens(b));
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t diagonal = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, substitution});
    }
  }
  return row[a.size()];
}

size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > bound) return bound + 1;
  std::vector<size_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t diagonal = row[0];
    row[0] = j;
    size_t row_min = row[0];
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, substitution});
      row_min = std::min(row_min, row[i]);
    }
    if (row_min > bound) return bound + 1;
  }
  return std::min(row[a.size()], bound + 1);
}

double NormalizedEditSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t distance = EditDistance(a, b);
  return 1.0 - static_cast<double>(distance) /
                   static_cast<double>(std::max(a.size(), b.size()));
}

std::string Soundex(std::string_view text) {
  std::string word = FirstWordToken(text);
  // Drop any leading digits; Soundex is defined over letters.
  size_t start = 0;
  while (start < word.size() && (word[start] < 'a' || word[start] > 'z')) {
    ++start;
  }
  if (start == word.size()) return "";

  auto code_of = [](char c) -> char {
    switch (c) {
      case 'b': case 'f': case 'p': case 'v':
        return '1';
      case 'c': case 'g': case 'j': case 'k':
      case 'q': case 's': case 'x': case 'z':
        return '2';
      case 'd': case 't':
        return '3';
      case 'l':
        return '4';
      case 'm': case 'n':
        return '5';
      case 'r':
        return '6';
      default:
        return '0';  // vowels and h/w/y.
    }
  };

  std::string result(1, static_cast<char>(word[start] - 'a' + 'A'));
  char previous_code = code_of(word[start]);
  for (size_t i = start + 1; i < word.size() && result.size() < 4; ++i) {
    char c = word[i];
    if (c < 'a' || c > 'z') continue;
    char code = code_of(c);
    if (c == 'h' || c == 'w') continue;  // h/w do not reset the run.
    if (code != '0' && code != previous_code) result.push_back(code);
    previous_code = code;
  }
  result.append(4 - result.size(), '0');
  return result;
}

const char* SetMeasureName(SetMeasure measure) {
  switch (measure) {
    case SetMeasure::kJaccard:
      return "jaccard";
    case SetMeasure::kCosine:
      return "cosine";
    case SetMeasure::kDice:
      return "dice";
    case SetMeasure::kOverlapCoefficient:
      return "overlap_coefficient";
  }
  return "unknown";
}

}  // namespace mc
