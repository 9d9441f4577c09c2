#ifndef MATCHCATCHER_TEXT_TOKENIZE_H_
#define MATCHCATCHER_TEXT_TOKENIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/normalize.h"

namespace mc {

/// Calls `fn(std::string_view token)` for each lower-cased word token of
/// `text` (maximal ASCII-alphanumeric run, FoldTokenByte classes), in order
/// and with repeats. The view points into `scratch` and is valid only for
/// the call; `scratch` is reused, so a warm loop allocates nothing.
template <typename Fn>
void ForEachWordToken(std::string_view text, std::string& scratch, Fn&& fn) {
  scratch.clear();
  for (char raw : text) {
    const char folded = FoldTokenByte(raw);
    if (folded != '\0') {
      scratch.push_back(folded);
    } else if (!scratch.empty()) {
      fn(std::string_view(scratch));
      scratch.clear();
    }
  }
  if (!scratch.empty()) fn(std::string_view(scratch));
}

/// ForEachWordToken over text that is already NormalizeForTokens output.
/// Its word tokens are its maximal runs of non-space bytes, so they are
/// passed as views into `normalized` and nothing is copied.
template <typename Fn>
void ForEachNormalizedWordToken(std::string_view normalized, Fn&& fn) {
  size_t i = 0;
  while (i < normalized.size()) {
    if (normalized[i] == ' ') {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < normalized.size() && normalized[j] != ' ') ++j;
    fn(normalized.substr(i, j - i));
    i = j;
  }
}

/// Calls `fn(std::string_view gram)` for every character q-gram of `text`,
/// in order and with repeats: the word tokens joined by single spaces and
/// padded with q-1 '#' on each side (the standard record-linkage
/// convention). Text with no word token has no grams, nor has q == 0. The
/// padded string is built in `scratch`; the views point into it.
template <typename Fn>
void ForEachQGram(std::string_view text, size_t q, std::string& scratch,
                  Fn&& fn) {
  scratch.clear();
  if (q == 0) return;
  scratch.append(q - 1, '#');
  bool last_was_space = true;
  bool has_content = false;
  for (char raw : text) {
    const char folded = FoldTokenByte(raw);
    if (folded != '\0') {
      scratch.push_back(folded);
      last_was_space = false;
      has_content = true;
    } else if (!last_was_space) {
      scratch.push_back(' ');
      last_was_space = true;
    }
  }
  if (!has_content) return;
  if (scratch.back() == ' ') scratch.pop_back();
  scratch.append(q - 1, '#');
  const std::string_view padded(scratch);
  for (size_t i = 0; i + q <= padded.size(); ++i) fn(padded.substr(i, q));
}

/// Splits `text` into lower-cased word tokens (maximal alphanumeric runs).
/// "Dave Smith, Altanta" -> {"dave", "smith", "altanta"}.
std::vector<std::string> WordTokens(std::string_view text);

/// Distinct word tokens in first-appearance order (set semantics, which is
/// how the paper defines Jaccard over strings in §3.1).
std::vector<std::string> DistinctWordTokens(std::string_view text);

/// Distinct character q-grams of `text` in first-appearance order (the
/// ForEachQGram sequence without repeats).
std::vector<std::string> QGrams(std::string_view text, size_t q);

/// Largest q AppendQGramCodes packs: q bytes must fit one uint32_t.
inline constexpr size_t kMaxCodedQGram = 4;

/// Appends the distinct q-grams of `text` (the QGrams set) to `out` as
/// packed codes, sorted ascending: a gram's bytes, first byte highest, in
/// one uint32_t. Packing is one-to-one for a fixed q, so the set sizes and
/// overlaps of two cells' codes equal those of their string grams. Needs
/// q <= kMaxCodedQGram; `scratch` is ForEachQGram's buffer.
void AppendQGramCodes(std::string_view text, size_t q, std::string& scratch,
                      std::vector<uint32_t>& out);

/// Last word token of `text`, or "" if there is none. Used by hash blockers
/// such as lastword(a.Name) = lastword(b.Name) in the paper's Example 1.1.
std::string LastWordToken(std::string_view text);

/// First word token of `text`, or "" if there is none.
std::string FirstWordToken(std::string_view text);

}  // namespace mc

#endif  // MATCHCATCHER_TEXT_TOKENIZE_H_
