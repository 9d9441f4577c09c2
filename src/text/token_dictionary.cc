#include "text/token_dictionary.h"

#include <algorithm>
#include <numeric>

namespace mc {

void TokenDictionary::FinalizeRanks() {
  std::vector<TokenId> order(index_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](TokenId a, TokenId b) {
    // Dead tokens (df 0 — only possible after delta updates subtract
    // frequencies) sort after every live token, so the live ranks of a
    // patched dictionary equal the ranks a from-scratch rebuild (which
    // never interns the dead tokens) would assign. Freshly built
    // dictionaries have df >= 1 everywhere, making this branch inert.
    const bool dead_a = document_frequency_[a] == 0;
    const bool dead_b = document_frequency_[b] == 0;
    if (dead_a != dead_b) return dead_b;
    if (document_frequency_[a] != document_frequency_[b]) {
      return document_frequency_[a] < document_frequency_[b];
    }
    return index_.KeyOf(a) < index_.KeyOf(b);
  });
  ranks_.assign(index_.size(), 0);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    ranks_[order[rank]] = static_cast<uint32_t>(rank);
  }
  ranks_valid_ = true;
}

}  // namespace mc
