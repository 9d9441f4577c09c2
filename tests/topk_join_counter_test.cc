// Counter identity of the QJoin event engine on small corpora built to hit
// its edge cases: shared tokens that all sit below position q - 1, runs of
// equal-length rows (the required-overlap cache survives across events),
// pairs sharing exactly q - 1 and exactly q tokens, ties at the k-th score,
// a hybrid prefilter that restarts and one that does not, and a child
// config seeded from its parent's list. Every case runs at q = 1..4 with 1
// and 4 table-A shards. The list must equal BruteForceTopK(min_overlap = q)
// exactly (both are canonical under (score desc, pair asc)), and every
// TopKJoinStats counter must equal the recorded value: the planner's cost
// model prices these counters, so the engine must keep them exact.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/candidate_set.h"
#include "joint/parent_merge.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/random.h"

namespace mc {
namespace {

// One run's counters, keyed by (q, shards).
struct Counters {
  size_t q;
  size_t shards;
  size_t events_popped;
  size_t pairs_discovered;
  size_t pairs_scored;
  size_t pairs_pruned;
  size_t tokens_indexed;
  size_t prefilter_restarts;

  bool operator==(const Counters&) const = default;
};

std::string Format(const Counters& c) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{%zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu}", c.q, c.shards,
                c.events_popped, c.pairs_discovered, c.pairs_scored,
                c.pairs_pruned, c.tokens_indexed, c.prefilter_restarts);
  return buffer;
}

std::string Word(const char* prefix, uint64_t id) {
  std::string word = prefix;
  word += std::to_string(id);
  return word;
}

// "<prefix><row>x<t>": a word private to one row pair.
std::string RowWord(const char* prefix, size_t row, size_t t) {
  std::string word = Word(prefix, row);
  word += 'x';
  word += std::to_string(t);
  return word;
}

// Appends `count` distinct words "<prefix><id>" drawn by `draw` to `words`.
template <typename Draw>
void AddDistinct(std::vector<std::string>& words, const char* prefix,
                 size_t count, Draw draw) {
  const size_t start = words.size();
  while (words.size() - start < count) {
    const std::string word = Word(prefix, draw());
    bool seen = false;
    for (size_t w = start; w < words.size(); ++w) seen |= words[w] == word;
    if (!seen) words.push_back(word);
  }
}

std::string Join(const std::vector<std::string>& words) {
  std::string text;
  for (const std::string& word : words) {
    if (!text.empty()) text += ' ';
    text += word;
  }
  return text;
}

std::pair<Table, Table> OneColumnTables(const std::vector<std::string>& a,
                                        const std::vector<std::string>& b) {
  Schema schema({{"text", AttributeType::kString}});
  Table table_a(schema), table_b(schema);
  for (const std::string& row : a) table_a.AddRow({row});
  for (const std::string& row : b) table_b.AddRow({row});
  return {std::move(table_a), std::move(table_b)};
}

size_t OverlapOf(const ConfigView& view, PairId pair) {
  const TokenSpan a = view.a(PairRowA(pair));
  const TokenSpan b = view.b(PairRowB(pair));
  size_t x = 0, y = 0, overlap = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x] == b[y]) {
      ++overlap;
      ++x;
      ++y;
    } else if (a[x] < b[y]) {
      ++x;
    } else {
      ++y;
    }
  }
  return overlap;
}

// Runs the join at q = 1..4 with 1 and 4 shards, checks each list against
// the q-restricted brute force bit for bit and each run's counters against
// `golden` (in the same (q, shards) order). On a counter mismatch the whole
// observed table is printed in `golden`'s initializer syntax.
void ExpectCountersAndLists(
    const ConfigView& view, TopKJoinOptions options,
    const std::vector<Counters>& golden,
    const std::function<std::vector<ScoredPair>(size_t q)>& seed_for = {}) {
  std::vector<Counters> observed;
  for (size_t q = 1; q <= 4; ++q) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      options.q = q;
      options.shards = shards;
      std::vector<ScoredPair> seed;
      if (seed_for) seed = seed_for(q);
      TopKJoinStats stats;
      const TopKList got = RunTopKJoin(view, options, nullptr,
                                       seed_for ? &seed : nullptr,
                                       &stats);
      ASSERT_FALSE(stats.truncated);
      const std::vector<ScoredPair> want =
          BruteForceTopK(view, options.k, options.measure, options.exclude,
                         q)
              .SortedDescending();
      const std::vector<ScoredPair> list = got.SortedDescending();
      ASSERT_EQ(list.size(), want.size()) << "q " << q << " shards " << shards;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(list[r].pair, want[r].pair)
            << "q " << q << " shards " << shards << " rank " << r;
        EXPECT_EQ(list[r].score, want[r].score)
            << "q " << q << " shards " << shards << " rank " << r;
      }
      observed.push_back(Counters{q, shards, stats.events_popped,
                                  stats.pairs_discovered, stats.pairs_scored,
                                  stats.pairs_pruned, stats.tokens_indexed,
                                  stats.prefilter_restarts});
    }
  }
  if (observed != golden) {
    std::string table;
    for (const Counters& c : observed) table += "      " + Format(c) + ",\n";
    ADD_FAILURE() << "counters differ from the recorded values; observed:\n"
                  << table;
  }
}

// Pairs share only a few rare tokens, which rank first in both rows; the
// rest of each row is frequent filler that exists on one side only, so it
// never forms a pair. Most pairs' shared tokens therefore sit at positions
// below q - 1 for q >= 3, and every event at such a position, and every
// posting it would index, is out of reach of q. One row in six also draws
// from a mid-frequency shared vocabulary, so some pairs do reach q.
TEST(TopKJoinCounterTest, SharedTokensOnlyBelowQ) {
  Rng rng(17);
  std::vector<std::string> a, b;
  for (size_t side = 0; side < 2; ++side) {
    const char* filler = side == 0 ? "fa" : "fb";
    for (size_t row = 0; row < 60; ++row) {
      std::vector<std::string> words;
      AddDistinct(words, "s", 1 + rng.NextBelow(2),
                  [&] { return rng.NextBelow(40); });
      if (row % 6 == 0) {
        AddDistinct(words, "m", 4, [&] { return rng.NextBelow(8); });
      }
      AddDistinct(words, filler, 3 + rng.NextBelow(3),
                  [&] { return rng.NextBelow(8); });
      (side == 0 ? a : b).push_back(Join(words));
    }
  }
  auto [table_a, table_b] = OneColumnTables(a, b);
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0});
  const ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 15;
  options.measure = SetMeasure::kJaccard;
  ExpectCountersAndLists(view, options,
                         {
                             {1, 1, 680, 294, 294, 0, 680, 0},
                             {1, 4, 1810, 294, 294, 0, 1810, 0},
                             {2, 1, 754, 126, 76, 0, 754, 0},
                             {2, 4, 1896, 126, 76, 0, 1896, 0},
                             {3, 1, 759, 48, 34, 0, 759, 0},
                             {3, 4, 1896, 48, 34, 0, 1896, 0},
                             {4, 1, 759, 23, 4, 0, 759, 0},
                             {4, 4, 1896, 23, 4, 0, 1896, 0},
                         });
}

// Every row has exactly six tokens, so consecutive events share a row
// length and the required-overlap cache carries over between them; equal
// lengths also make many pairs tie.
TEST(TopKJoinCounterTest, EqualLengthRows) {
  Rng rng(29);
  std::vector<std::string> a, b;
  for (size_t row = 0; row < 70; ++row) {
    for (auto* side : {&a, &b}) {
      std::vector<std::string> words;
      AddDistinct(words, "w", 6, [&] { return rng.NextZipf(40, 0.8); });
      side->push_back(Join(words));
    }
  }
  auto [table_a, table_b] = OneColumnTables(a, b);
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0});
  const ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 25;
  options.measure = SetMeasure::kCosine;
  ExpectCountersAndLists(view, options,
                         {
                             {1, 1, 560, 1202, 1202, 932, 560, 0},
                             {1, 4, 1750, 1950, 1950, 1546, 1750, 0},
                             {2, 1, 700, 1330, 257, 1538, 700, 0},
                             {2, 4, 2100, 2279, 768, 2999, 2100, 0},
                             {3, 1, 840, 1667, 86, 2996, 840, 0},
                             {3, 4, 2100, 2898, 511, 0, 2100, 0},
                             {4, 1, 840, 2267, 51, 0, 840, 0},
                             {4, 4, 2100, 2267, 51, 0, 2100, 0},
                         });
}

// Row i of A and row i of B share exactly i % 6 private tokens, so for
// every q in 1..4 some pairs share exactly q - 1 tokens (never scored) and
// some exactly q (scored at their last shared token). Two common tokens per
// row add cross pairs.
TEST(TopKJoinCounterTest, ExactlyQMinusOneAndQSharedTokens) {
  Rng rng(41);
  std::vector<std::string> a, b;
  for (size_t row = 0; row < 60; ++row) {
    const size_t shared = row % 6;
    for (size_t side = 0; side < 2; ++side) {
      std::vector<std::string> words;
      for (size_t t = 0; t < shared; ++t) {
        words.push_back(RowWord("p", row, t));
      }
      const char* own = side == 0 ? "ua" : "ub";
      for (size_t t = shared; t < 6; ++t) {
        words.push_back(RowWord(own, row, t));
      }
      AddDistinct(words, "c", 2, [&] { return rng.NextZipf(15, 0.8); });
      (side == 0 ? a : b).push_back(Join(words));
    }
  }
  auto [table_a, table_b] = OneColumnTables(a, b);
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0});
  const ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 20;
  options.measure = SetMeasure::kDice;
  ExpectCountersAndLists(view, options,
                         {
                             {1, 1, 720, 40, 40, 50, 720, 0},
                             {1, 4, 2100, 300, 300, 0, 2100, 0},
                             {2, 1, 840, 50, 40, 255, 840, 0},
                             {2, 4, 2400, 1263, 112, 0, 2400, 0},
                             {3, 1, 960, 290, 30, 1047, 960, 0},
                             {3, 4, 2400, 1253, 33, 0, 2400, 0},
                             {4, 1, 960, 1243, 23, 0, 960, 0},
                             {4, 4, 2400, 1243, 23, 0, 2400, 0},
                         });
}

// Four tokens per row from a nine-word vocabulary under the overlap
// coefficient: scores take few distinct values, so the k-th score sits
// inside a large tie group and the pair-id tie break decides the boundary.
TEST(TopKJoinCounterTest, TiesAtTheKthScore) {
  Rng rng(53);
  std::vector<std::string> a, b;
  for (size_t row = 0; row < 50; ++row) {
    for (auto* side : {&a, &b}) {
      std::vector<std::string> words;
      AddDistinct(words, "t", 4, [&] { return rng.NextBelow(9); });
      side->push_back(Join(words));
    }
  }
  auto [table_a, table_b] = OneColumnTables(a, b);
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0});
  const ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 30;
  options.measure = SetMeasure::kOverlapCoefficient;
  ExpectCountersAndLists(view, options,
                         {
                             {1, 1, 400, 1495, 1495, 2774, 400, 0},
                             {1, 4, 1000, 1640, 1640, 2424, 1000, 0},
                             {2, 1, 400, 794, 757, 1557, 400, 0},
                             {2, 4, 1000, 859, 945, 1218, 1000, 0},
                             {3, 1, 400, 480, 416, 0, 400, 0},
                             {3, 4, 1000, 480, 416, 0, 1000, 0},
                             {4, 1, 400, 187, 19, 0, 400, 0},
                             {4, 4, 1000, 187, 19, 0, 1000, 0},
                         });
}

std::pair<Table, Table> ZipfTables(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> a, b;
  for (size_t row = 0; row < 80; ++row) {
    for (auto* side : {&a, &b}) {
      std::vector<std::string> words;
      AddDistinct(words, "w", 2 + rng.NextBelow(7),
                  [&] { return rng.NextZipf(40, 0.8); });
      side->push_back(Join(words));
    }
  }
  return OneColumnTables(a, b);
}

// A prefilter above every reachable k-th score: the first phase ends short
// and the engine restarts without it, seeded with the phase's survivors.
TEST(TopKJoinCounterTest, HybridPrefilterRestart) {
  auto [table_a, table_b] = ZipfTables(67);
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0});
  const ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 20;
  options.measure = SetMeasure::kJaccard;
  options.prefilter_threshold = 0.95;
  ExpectCountersAndLists(view, options,
                         {
                             {1, 1, 675, 720, 720, 1191, 675, 1},
                             {1, 4, 1788, 1036, 1036, 1185, 1788, 4},
                             {2, 1, 974, 1054, 132, 1505, 974, 1},
                             {2, 4, 2543, 1593, 314, 1335, 2543, 4},
                             {3, 1, 1201, 1282, 54, 1214, 1201, 1},
                             {3, 4, 3119, 1812, 161, 985, 3119, 4},
                             {4, 1, 1350, 1165, 26, 256, 1350, 1},
                             {4, 4, 3414, 1187, 43, 100, 3414, 4},
                         });
}

// A prefilter below the true k-th score: the first phase's list is final.
TEST(TopKJoinCounterTest, HybridPrefilterWithoutRestart) {
  auto [table_a, table_b] = ZipfTables(67);
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0});
  const ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 20;
  options.measure = SetMeasure::kJaccard;
  options.prefilter_threshold = 0.3;
  ExpectCountersAndLists(view, options,
                         {
                             {1, 1, 515, 690, 690, 1038, 515, 0},
                             {1, 4, 1388, 992, 992, 1046, 1388, 0},
                             {2, 1, 654, 1014, 131, 1372, 654, 0},
                             {2, 4, 1743, 1512, 307, 1249, 1743, 0},
                             {3, 1, 742, 1242, 54, 1076, 742, 0},
                             {3, 4, 1964, 1772, 161, 848, 1964, 0},
                             {4, 1, 777, 1098, 26, 156, 777, 0},
                             {4, 4, 3948, 2240, 86, 0, 3948, 4},
                         });
}

// Two attributes; the child config (first attribute only) is seeded with the
// parent config's list re-scored under the child, as the joint executor
// seeds it, restricted to q-eligible pairs so the q-restricted brute force
// stays the ground truth. Both joins skip the same blocker output.
TEST(TopKJoinCounterTest, SeededChildConfig) {
  Rng rng(79);
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table table_a(schema), table_b(schema);
  for (size_t row = 0; row < 70; ++row) {
    for (Table* table : {&table_a, &table_b}) {
      std::vector<std::string> name, city;
      AddDistinct(name, "n", 2 + rng.NextBelow(5),
                  [&] { return rng.NextZipf(30, 0.8); });
      AddDistinct(city, "y", 1 + rng.NextBelow(3),
                  [&] { return rng.NextZipf(12, 0.8); });
      table->AddRow({Join(name), Join(city)});
    }
  }
  const SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, {0, 1});
  const ConfigView parent = corpus.MakeConfigView(0b11);
  const ConfigView child = corpus.MakeConfigView(0b01);
  CandidateSet exclude;
  for (RowId i = 0; i < 70; i += 3) exclude.Add(i, (i * 7 + 3) % 70);

  auto parent_seed = [&](size_t q) {
    TopKJoinOptions parent_options;
    parent_options.k = 40;
    parent_options.q = q;
    parent_options.exclude = &exclude;
    const TopKList parent_list = RunTopKJoin(parent, parent_options);
    DirectPairScorer scorer(&child, SetMeasure::kJaccard);
    std::vector<ScoredPair> seed;
    for (const ScoredPair& entry :
         ReadjustToConfig(parent_list.SortedDescending(), child, scorer)) {
      if (OverlapOf(child, entry.pair) >= q) seed.push_back(entry);
    }
    return seed;
  };

  TopKJoinOptions options;
  options.k = 25;
  options.measure = SetMeasure::kJaccard;
  options.exclude = &exclude;
  ExpectCountersAndLists(child, options,
                         {
                             {1, 1, 400, 541, 538, 835, 400, 0},
                             {1, 4, 991, 576, 573, 799, 991, 0},
                             {2, 1, 511, 807, 126, 1017, 511, 0},
                             {2, 4, 1258, 943, 146, 856, 1258, 0},
                             {3, 1, 571, 924, 49, 675, 571, 0},
                             {3, 4, 1408, 1123, 91, 254, 1408, 0},
                             {4, 1, 571, 567, 14, 0, 571, 0},
                             {4, 4, 1408, 567, 14, 0, 1408, 0},
                         },
                         parent_seed);
}

}  // namespace
}  // namespace mc
