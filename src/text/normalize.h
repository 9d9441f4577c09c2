#ifndef MATCHCATCHER_TEXT_NORMALIZE_H_
#define MATCHCATCHER_TEXT_NORMALIZE_H_

#include <array>
#include <string>
#include <string_view>

namespace mc {

namespace internal {

// Byte classes of every tokenizer in the library: a byte is alphanumeric
// iff it is in [0-9A-Za-z], and only A-Z fold (to a-z). Entry 0 marks a
// separator — '\0' itself is one. In the C locale this is exactly
// std::isalnum / std::tolower byte for byte, but it never consults the
// process locale, so bytes 0x80-0xFF are separators everywhere.
inline constexpr std::array<char, 256> kTokenFold = [] {
  std::array<char, 256> fold{};
  for (int c = '0'; c <= '9'; ++c) fold[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) fold[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) fold[c] = static_cast<char>(c - 'A' + 'a');
  return fold;
}();

}  // namespace internal

/// The lower-cased byte if `c` is ASCII alphanumeric, else '\0'.
inline char FoldTokenByte(char c) {
  return internal::kTokenFold[static_cast<unsigned char>(c)];
}

/// Lower-cases ASCII letters in place-semantics (returns a new string).
std::string ToLowerAscii(std::string_view text);

/// Canonical text normalization used before tokenization everywhere in the
/// library: lower-case ASCII and map every non-alphanumeric byte to a space.
std::string NormalizeForTokens(std::string_view text);

/// NormalizeForTokens into `out`, reusing its capacity.
void NormalizeForTokensInto(std::string_view text, std::string& out);

/// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view text);

}  // namespace mc

#endif  // MATCHCATCHER_TEXT_NORMALIZE_H_
