#include "text/tokenize.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

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

void AppendQGramCodes(std::string_view text, size_t q, std::string& scratch,
                      std::vector<uint32_t>& out) {
  MC_CHECK_LE(q, kMaxCodedQGram);
  const size_t begin = out.size();
  ForEachQGram(text, q, scratch, [&](std::string_view gram) {
    uint32_t code = 0;
    for (char byte : gram) code = (code << 8) | static_cast<uint8_t>(byte);
    out.push_back(code);
  });
  std::sort(out.begin() + begin, out.end());
  out.erase(std::unique(out.begin() + begin, out.end()), out.end());
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
