#include "blocking/canopy_blocker.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/similarity.h"
#include "text/token_dictionary.h"
#include "util/check.h"
#include "util/random.h"

namespace mc {

CanopyBlocker::CanopyBlocker(size_t column, TokenizerSpec tokenizer,
                             double loose, double tight, uint64_t seed)
    : column_(column),
      tokenizer_(tokenizer),
      loose_(loose),
      tight_(tight),
      seed_(seed) {
  MC_CHECK_LE(loose, tight) << "loose canopy threshold must not exceed tight";
}

CandidateSet CanopyBlocker::Run(const Table& table_a,
                                const Table& table_b) const {
  // Tokenize both tables into a shared dictionary; each entry remembers its
  // source table and row.
  struct Item {
    bool from_a;
    RowId row;
    std::vector<TokenId> tokens;  // Sorted.
  };
  TokenDictionary dictionary;
  std::vector<Item> items;
  std::string scratch;
  auto add_table = [&](const Table& table, bool from_a) {
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (table.IsMissing(row, column_)) continue;
      std::vector<TokenId> ids;
      tokenizer_.ForEachToken(table.Value(row, column_), scratch,
                              [&](std::string_view token) {
                                ids.push_back(dictionary.Intern(token));
                              });
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      if (ids.empty()) continue;
      items.push_back(Item{from_a, static_cast<RowId>(row), std::move(ids)});
    }
  };
  add_table(table_a, true);
  add_table(table_b, false);

  // Inverted index over all items for cheap canopy formation.
  std::unordered_map<TokenId, std::vector<uint32_t>> index;
  for (uint32_t i = 0; i < items.size(); ++i) {
    for (TokenId token : items[i].tokens) index[token].push_back(i);
  }

  auto jaccard = [&](const Item& x, const Item& y) {
    size_t i = 0, j = 0, overlap = 0;
    while (i < x.tokens.size() && j < y.tokens.size()) {
      if (x.tokens[i] == y.tokens[j]) {
        ++overlap;
        ++i;
        ++j;
      } else if (x.tokens[i] < y.tokens[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return SetSimilarityFromCounts(SetMeasure::kJaccard, x.tokens.size(),
                                   y.tokens.size(), overlap);
  };

  // Canopy formation over a shuffled seed order (deterministic by seed_).
  std::vector<uint32_t> order(items.size());
  for (uint32_t i = 0; i < items.size(); ++i) order[i] = i;
  Rng rng(seed_);
  rng.Shuffle(order);

  std::vector<bool> removed(items.size(), false);
  CandidateSet result;
  std::vector<uint32_t> canopy_a, canopy_b;
  std::vector<uint32_t> neighbors;
  for (uint32_t seed_item : order) {
    if (removed[seed_item]) continue;
    removed[seed_item] = true;
    canopy_a.clear();
    canopy_b.clear();
    // Candidates: items sharing at least one token with the seed.
    neighbors.clear();
    for (TokenId token : items[seed_item].tokens) {
      const std::vector<uint32_t>& list = index[token];
      neighbors.insert(neighbors.end(), list.begin(), list.end());
    }
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    for (uint32_t other : neighbors) {
      double similarity = other == seed_item
                              ? 1.0
                              : jaccard(items[seed_item], items[other]);
      if (similarity < loose_) continue;
      (items[other].from_a ? canopy_a : canopy_b).push_back(other);
      if (similarity >= tight_) removed[other] = true;
    }
    for (uint32_t a : canopy_a) {
      for (uint32_t b : canopy_b) {
        result.Add(items[a].row, items[b].row);
      }
    }
  }
  return result;
}

std::string CanopyBlocker::Description(const Schema& schema) const {
  return "canopy_" + tokenizer_.Description() + "(" +
         schema.attribute(column_).name + ", loose=" +
         std::to_string(loose_) + ", tight=" + std::to_string(tight_) + ")";
}

}  // namespace mc
