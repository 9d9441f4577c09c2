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
  // Written through a local pointer: a char store may alias the string's
  // own data pointer, so out[i] would reload it on every byte (about 3x
  // slower; readers normalize cells on demand, so this loop is hot).
  char* const dst = out.data();
  for (size_t i = 0; i < text.size(); ++i) {
    const char folded = FoldTokenByte(text[i]);
    dst[i] = folded != '\0' ? folded : ' ';
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
