#include "text/tokenize.h"

#include <unordered_set>

namespace mc {

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::string scratch;
  ForEachWordToken(text, scratch, [&](std::string_view token) {
    tokens.emplace_back(token);
  });
  return tokens;
}

std::vector<std::string> DistinctWordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::unordered_set<std::string> seen;
  std::string scratch;
  ForEachWordToken(text, scratch, [&](std::string_view token) {
    if (seen.emplace(token).second) tokens.emplace_back(token);
  });
  return tokens;
}

std::vector<std::string> QGrams(std::string_view text, size_t q) {
  std::vector<std::string> grams;
  std::unordered_set<std::string_view> seen;
  std::string scratch;
  ForEachQGram(text, q, scratch, [&](std::string_view gram) {
    if (seen.insert(gram).second) grams.emplace_back(gram);
  });
  return grams;
}

std::string LastWordToken(std::string_view text) {
  std::string last;
  std::string scratch;
  ForEachWordToken(text, scratch, [&](std::string_view token) {
    last = token;
  });
  return last;
}

std::string FirstWordToken(std::string_view text) {
  std::string first;
  std::string scratch;
  ForEachWordToken(text, scratch, [&](std::string_view token) {
    if (first.empty()) first = token;
  });
  return first;
}

}  // namespace mc
