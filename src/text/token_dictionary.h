#ifndef MATCHCATCHER_TEXT_TOKEN_DICTIONARY_H_
#define MATCHCATCHER_TEXT_TOKEN_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/string_index.h"
#include "util/check.h"

namespace mc {

/// Token id type used throughout the SSJ machinery.
using TokenId = uint32_t;

/// Interns word tokens to dense ids and tracks document frequencies, from
/// which it derives the global token ordering used by prefix-based joins
/// (ascending document frequency — rarest first — with ties broken by the
/// token string for determinism).
class TokenDictionary {
 public:
  TokenDictionary() = default;

  /// Returns the id of `token`, interning it if new. Allocates nothing
  /// when the token is already interned.
  TokenId Intern(std::string_view token) {
    auto [id, inserted] = index_.Insert(token);
    if (inserted) {
      document_frequency_.push_back(0);
      ranks_valid_ = false;
    }
    return id;
  }

  /// Returns the id of `token` if already interned.
  std::optional<TokenId> Find(std::string_view token) const {
    const uint32_t id = index_.Find(token);
    if (id == StringIndex::kAbsent) return std::nullopt;
    return id;
  }

  /// The token's bytes; valid until the next Intern of a new token.
  std::string_view TokenOf(TokenId id) const { return index_.KeyOf(id); }

  /// Records one document occurrence for each id in `distinct_ids`; the
  /// caller must have deduplicated ids within the document.
  void AddDocument(const std::vector<TokenId>& distinct_ids) {
    for (TokenId id : distinct_ids) {
      MC_CHECK_LT(id, document_frequency_.size());
      ++document_frequency_[id];
    }
    ranks_valid_ = false;
  }

  /// Adds `count` document occurrences to `id` in one step. The parallel
  /// corpus build tallies frequencies in per-block dictionaries and merges
  /// them here; the result is identical to `count` AddDocument calls.
  void AddDocumentFrequency(TokenId id, uint32_t count) {
    MC_CHECK_LT(id, document_frequency_.size());
    document_frequency_[id] += count;
    ranks_valid_ = false;
  }

  /// Removes `count` document occurrences from `id` — the delta path's
  /// inverse of AddDocumentFrequency, used when a row's old content is
  /// retired. Subtracting below zero is a programming error.
  void SubtractDocumentFrequency(TokenId id, uint32_t count) {
    MC_CHECK_LT(id, document_frequency_.size());
    MC_CHECK_GE(document_frequency_[id], count)
        << "document frequency underflow for token '" << index_.KeyOf(id)
        << "'";
    document_frequency_[id] -= count;
    ranks_valid_ = false;
  }

  uint32_t DocumentFrequency(TokenId id) const {
    MC_CHECK_LT(id, document_frequency_.size());
    return document_frequency_[id];
  }

  /// Tokens whose document frequency has dropped to zero (possible only
  /// after SubtractDocumentFrequency). They keep their ids — consumers may
  /// still hold streams referencing them — but rank after all live tokens
  /// and motivate compaction (a full rebuild) once they dominate.
  size_t DeadTokenCount() const {
    size_t dead = 0;
    for (uint32_t df : document_frequency_) dead += (df == 0);
    return dead;
  }

  size_t size() const { return index_.size(); }

  /// Global-order rank of a token: lower rank = rarer = earlier in every
  /// sorted token list. Call FinalizeRanks() after the last AddDocument().
  uint32_t RankOf(TokenId id) const {
    MC_CHECK(ranks_valid_) << "FinalizeRanks() not called";
    MC_CHECK_LT(id, ranks_.size());
    return ranks_[id];
  }

  /// Computes the global ordering from current document frequencies.
  void FinalizeRanks();

 private:
  StringIndex index_;  // Token <-> id, ids in first-appearance order.
  std::vector<uint32_t> document_frequency_;
  std::vector<uint32_t> ranks_;
  bool ranks_valid_ = false;
};

}  // namespace mc

#endif  // MATCHCATCHER_TEXT_TOKEN_DICTIONARY_H_
