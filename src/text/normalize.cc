#include "text/normalize.h"

#include <cctype>

namespace mc {

std::string ToLowerAscii(std::string_view text) {
  std::string result(text);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

std::string NormalizeForTokens(std::string_view text) {
  std::string result;
  NormalizeForTokensInto(text, result);
  return result;
}

void NormalizeForTokensInto(std::string_view text, std::string& out) {
  out.resize(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char folded = FoldTokenByte(text[i]);
    out[i] = folded != '\0' ? folded : ' ';
  }
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

}  // namespace mc
