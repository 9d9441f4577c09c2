// The callback tokenizers, their string wrappers and the interned blocking
// tokenizer must keep the tokens of the original std::isalnum/std::tolower
// implementation (kept below as the reference) on adversarial input, and
// StringIndex must map keys to first-appearance ids through rehashes, hash
// collisions and keys that differ in one byte.

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/executors.h"
#include "blocking/predicate.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "text/normalize.h"
#include "text/string_index.h"
#include "text/tokenize.h"
#include "util/random.h"

namespace mc {
namespace {

// --- Reference tokenizers: the implementation before the callback
// tokenizers, byte for byte (the test process runs in the C locale).

std::vector<std::string> ReferenceDistinctWordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::unordered_set<std::string> seen;
  std::string current;
  auto flush = [&] {
    if (!current.empty() && seen.insert(current).second) {
      tokens.push_back(current);
    }
    current.clear();
  };
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::vector<std::string> ReferenceQGrams(std::string_view text, size_t q) {
  std::vector<std::string> grams;
  if (q == 0) return grams;
  std::string normalized;
  normalized.append(q - 1, '#');
  bool last_was_space = true;
  bool has_content = false;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      normalized.push_back(static_cast<char>(std::tolower(c)));
      last_was_space = false;
      has_content = true;
    } else if (!last_was_space) {
      normalized.push_back(' ');
      last_was_space = true;
    }
  }
  if (!has_content) return grams;
  while (!normalized.empty() && normalized.back() == ' ') {
    normalized.pop_back();
  }
  normalized.append(q - 1, '#');
  if (normalized.size() < q) return grams;
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i + q <= normalized.size(); ++i) {
    std::string gram = normalized.substr(i, q);
    if (seen.insert(gram).second) grams.push_back(std::move(gram));
  }
  return grams;
}

// `prefix` followed by the decimal `n` (built by appends, not operator+).
std::string Numbered(std::string_view prefix, size_t n) {
  std::string key(prefix);
  key += std::to_string(n);
  return key;
}

std::vector<std::string> Distinct(const std::vector<std::string>& tokens) {
  std::vector<std::string> distinct;
  std::unordered_set<std::string> seen;
  for (const std::string& token : tokens) {
    if (seen.insert(token).second) distinct.push_back(token);
  }
  return distinct;
}

// A random cell of `bytes` bytes: mostly short words of mixed case and
// digits, with separators drawn from punctuation, whitespace, NUL and high
// bytes.
std::string RandomCell(Rng& rng, size_t bytes) {
  static constexpr std::string_view kWordBytes =
      "abcdeABCDE0123456789xyzXYZ";
  static constexpr char kSeparators[] = {' ', '\t', '\n', '\r', '\0', ',',
                                         '-', '#', '\x80', '\xe9', '\xff',
                                         '\xc3', '\x7f'};
  std::string cell;
  cell.reserve(bytes);
  while (cell.size() < bytes) {
    const size_t length = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < length && cell.size() < bytes; ++i) {
      cell.push_back(kWordBytes[rng.NextBelow(kWordBytes.size())]);
    }
    if (cell.size() < bytes) {
      cell.push_back(kSeparators[rng.NextBelow(sizeof(kSeparators))]);
    }
  }
  return cell;
}

std::vector<std::string> AdversarialCells() {
  using namespace std::string_literals;
  std::vector<std::string> cells = {
      ""s,
      " "s,
      "   \t\r\n  "s,
      "!!! --- ???"s,
      "...,;:'\"()[]{}"s,
      "ab\0cd"s,
      "\0"s,
      "\0\0x\0"s,
      "caf\xc3\xa9 na\xefve \x80\x81\xfe\xff"s,
      "\xff\xfe"s,
      "line one\r\nline two\ttab\rcr"s,
      "Dave Smith, Altanta 18"s,
      "a b a B A b c"s,
      "repeat repeat REPEAT Repeat"s,
      "aaaaaa"s,
      "aaaa aaaa aaaa"s,
      "a"s,
      "ab"s,
      "abc"s,
      "x y"s,
      "MiXeD123cAsE 42 0042"s,
  };
  for (int byte = 0; byte < 256; byte += 17) {
    std::string cell(1, static_cast<char>(byte));
    cell += 'k';
    cell += static_cast<char>(255 - byte);
    cells.push_back(cell);
  }
  return cells;
}

std::vector<std::string> CollectWordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::string scratch;
  ForEachWordToken(text, scratch, [&](std::string_view token) {
    tokens.emplace_back(token);
  });
  return tokens;
}

std::vector<std::string> CollectQGrams(std::string_view text, size_t q) {
  std::vector<std::string> grams;
  std::string scratch;
  ForEachQGram(text, q, scratch, [&](std::string_view gram) {
    grams.emplace_back(gram);
  });
  return grams;
}

TEST(TokenizerReferenceTest, ByteClassesEqualCLocaleIsalnum) {
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const char expected =
        std::isalnum(byte) ? static_cast<char>(std::tolower(byte)) : '\0';
    EXPECT_EQ(FoldTokenByte(c), expected) << "byte " << byte;
  }
}

TEST(TokenizerReferenceTest, AdversarialCellsMatchReference) {
  for (const std::string& cell : AdversarialCells()) {
    std::string label = Numbered("cell of ", cell.size());
    label += " bytes: ";
    label += NormalizeForTokens(cell);
    EXPECT_EQ(Distinct(CollectWordTokens(cell)),
              ReferenceDistinctWordTokens(cell))
        << label;
    EXPECT_EQ(DistinctWordTokens(cell), ReferenceDistinctWordTokens(cell))
        << label;
    EXPECT_EQ(WordTokens(cell), CollectWordTokens(cell)) << label;
    std::vector<std::string> normalized_tokens;
    ForEachNormalizedWordToken(NormalizeForTokens(cell),
                               [&](std::string_view token) {
                                 normalized_tokens.emplace_back(token);
                               });
    EXPECT_EQ(normalized_tokens, WordTokens(cell)) << label;
    for (size_t q = 1; q <= 5; ++q) {
      EXPECT_EQ(Distinct(CollectQGrams(cell, q)), ReferenceQGrams(cell, q))
          << label << " q=" << q;
      EXPECT_EQ(QGrams(cell, q), ReferenceQGrams(cell, q))
          << label << " q=" << q;
    }
  }
}

// AppendQGramCodes packs each gram one-to-one, so unpacking its codes
// must give back exactly the reference gram set, sorted.
TEST(TokenizerReferenceTest, QGramCodesUnpackToReferenceGrams) {
  std::string scratch;
  for (const std::string& cell : AdversarialCells()) {
    for (size_t q = 1; q <= kMaxCodedQGram; ++q) {
      std::vector<uint32_t> codes = {7};  // Codes append after it.
      AppendQGramCodes(cell, q, scratch, codes);
      ASSERT_EQ(codes.front(), 7u);
      EXPECT_TRUE(std::is_sorted(codes.begin() + 1, codes.end()));
      std::vector<std::string> unpacked;
      for (size_t i = 1; i < codes.size(); ++i) {
        std::string gram(q, '\0');
        for (size_t j = 0; j < q; ++j) {
          gram[j] = static_cast<char>(codes[i] >> (8 * (q - 1 - j)));
        }
        unpacked.push_back(gram);
      }
      std::vector<std::string> reference = ReferenceQGrams(cell, q);
      std::sort(reference.begin(), reference.end());
      EXPECT_EQ(unpacked, reference)
          << Numbered("cell of ", cell.size()) << " bytes, q=" << q;
    }
  }
}

TEST(TokenizerReferenceTest, CellsShorterThanQ) {
  for (const std::string cell : {"a", "ab", "abc", " a ", "!a!", "A B"}) {
    for (size_t q = 1; q <= 5; ++q) {
      const std::vector<std::string> grams = CollectQGrams(cell, q);
      EXPECT_EQ(Distinct(grams), ReferenceQGrams(cell, q))
          << cell << " q=" << q;
      // Padding guarantees at least one gram whenever there is content.
      EXPECT_FALSE(grams.empty()) << cell << " q=" << q;
      for (const std::string& gram : grams) EXPECT_EQ(gram.size(), q);
    }
  }
  EXPECT_TRUE(CollectQGrams("abc", 0).empty());
}

TEST(TokenizerReferenceTest, RepeatsAreKeptInOrder) {
  EXPECT_EQ(CollectWordTokens("x Y x y"),
            (std::vector<std::string>{"x", "y", "x", "y"}));
  // "#aaaaaa#" at q = 2: "#a", five "aa", "a#".
  const std::vector<std::string> grams = CollectQGrams("aaaaaa", 2);
  ASSERT_EQ(grams.size(), 7u);
  EXPECT_EQ(grams.front(), "#a");
  EXPECT_EQ(grams.back(), "a#");
  EXPECT_EQ(std::count(grams.begin(), grams.end(), "aa"), 5);
  EXPECT_EQ(QGrams("aaaaaa", 2),
            (std::vector<std::string>{"#a", "aa", "a#"}));
}

TEST(TokenizerReferenceTest, OneMebibyteCellMatchesReference) {
  Rng rng(20180326);
  const std::string cell = RandomCell(rng, size_t{1} << 20);
  EXPECT_EQ(Distinct(CollectWordTokens(cell)),
            ReferenceDistinctWordTokens(cell));
  EXPECT_EQ(DistinctWordTokens(cell), ReferenceDistinctWordTokens(cell));
  EXPECT_EQ(QGrams(cell, 3), ReferenceQGrams(cell, 3));
  EXPECT_EQ(NormalizeForTokens(cell).size(), cell.size());
}

Table OneColumnTable(const std::vector<std::string>& values) {
  Table table(Schema({{"text", AttributeType::kString}}));
  for (const std::string& value : values) table.AddRow({value});
  return table;
}

// Reference shared-token count of every (A row, B row) pair, row-major
// (missing cells hold no token).
std::vector<size_t> ReferenceOverlaps(const Table& a, const Table& b,
                                      const TokenizerSpec& tokenizer) {
  auto token_sets = [&](const Table& table) {
    std::vector<std::unordered_set<std::string>> sets(table.num_rows());
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (table.IsMissing(row, 0)) continue;
      const std::vector<std::string> tokens =
          tokenizer.kind == TokenizerSpec::Kind::kWord
              ? ReferenceDistinctWordTokens(table.Value(row, 0))
              : ReferenceQGrams(table.Value(row, 0), tokenizer.q);
      sets[row].insert(tokens.begin(), tokens.end());
    }
    return sets;
  };
  const auto sets_a = token_sets(a);
  const auto sets_b = token_sets(b);
  std::vector<size_t> overlaps;
  for (const auto& set_a : sets_a) {
    for (const auto& set_b : sets_b) {
      const auto& [small, large] = set_a.size() < set_b.size()
                                       ? std::tie(set_a, set_b)
                                       : std::tie(set_b, set_a);
      size_t shared = 0;
      for (const std::string& token : small) shared += large.count(token);
      overlaps.push_back(shared);
    }
  }
  return overlaps;
}

// The interned blocking tokenizer (ids deduplicated per cell by stamp)
// must see exactly the reference token sets: an overlap join over
// adversarial cells equals the reference evaluation, from strings and over
// the text plane.
TEST(TokenizerReferenceTest, InternedBlockingTokensMatchReference) {
  Rng rng(7);
  std::vector<std::string> cells = AdversarialCells();
  cells.push_back(RandomCell(rng, size_t{1} << 20));
  cells.push_back(RandomCell(rng, 300));
  cells.push_back(RandomCell(rng, 40));
  std::vector<std::string> shuffled = cells;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  Table a = OneColumnTable(cells);
  Table b = OneColumnTable(shuffled);
  Table a_plane = a;
  Table b_plane = b;
  TokenizedTable::BuildAndAttach(a_plane, b_plane);
  // q = 5 is left to the short cells above: on the 1 MiB cell nearly every
  // 5-gram is distinct, which costs seconds and tests nothing new.
  for (const TokenizerSpec& tokenizer :
       {TokenizerSpec::Word(), TokenizerSpec::QGram(1),
        TokenizerSpec::QGram(2), TokenizerSpec::QGram(3)}) {
    const std::vector<size_t> overlaps = ReferenceOverlaps(a, b, tokenizer);
    for (size_t min_overlap : {1u, 2u}) {
      CandidateSet expected;
      for (size_t i = 0; i < overlaps.size(); ++i) {
        if (overlaps[i] < min_overlap) continue;
        expected.Add(static_cast<RowId>(i / b.num_rows()),
                     static_cast<RowId>(i % b.num_rows()));
      }
      const OverlapPredicate predicate(0, tokenizer, min_overlap);
      const std::string label =
          tokenizer.Description() + " overlap >= " +
          std::to_string(min_overlap);
      EXPECT_EQ(EnumerateOverlap(a, b, predicate).SortedPairs(),
                expected.SortedPairs())
          << label << " / strings";
      EXPECT_EQ(EnumerateOverlap(a_plane, b_plane, predicate).SortedPairs(),
                expected.SortedPairs())
          << label << " / plane";
    }
  }
}

// --- StringIndex.

TEST(StringIndexTest, IdsFollowFirstAppearanceThroughRehashes) {
  StringIndex index;
  constexpr size_t kKeys = 120000;
  auto key_of = [](size_t i) { return Numbered("key-", i * 7919); };
  for (size_t i = 0; i < kKeys; ++i) {
    const auto [id, inserted] = index.Insert(key_of(i));
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(id, i);
    // Re-inserting a known key returns its id and inserts nothing.
    if (i % 97 == 0) {
      const auto [again, inserted_again] = index.Insert(key_of(i / 2));
      ASSERT_FALSE(inserted_again);
      ASSERT_EQ(again, i / 2);
    }
  }
  ASSERT_EQ(index.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(index.Find(key_of(i)), i);
    ASSERT_EQ(index.KeyOf(static_cast<uint32_t>(i)), key_of(i));
  }
}

TEST(StringIndexTest, FindOnAbsentKeys) {
  StringIndex index;
  EXPECT_EQ(index.Find("anything"), StringIndex::kAbsent);
  EXPECT_EQ(index.Find(""), StringIndex::kAbsent);
  for (size_t i = 0; i < 1000; ++i) index.Insert(Numbered("present", i));
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(index.Find(Numbered("absent", i)), StringIndex::kAbsent);
    EXPECT_EQ(index.Find(Numbered("present", i + 1000)),
              StringIndex::kAbsent);
  }
  EXPECT_EQ(index.Find(""), StringIndex::kAbsent);
  EXPECT_EQ(index.Find("present"), StringIndex::kAbsent);
  EXPECT_EQ(index.size(), 1000u);
}

TEST(StringIndexTest, EmptyKeyIsAnOrdinaryKey) {
  StringIndex index;
  EXPECT_EQ(index.Insert("a").first, 0u);
  EXPECT_EQ(index.Insert("").first, 1u);
  EXPECT_FALSE(index.Insert("").second);
  EXPECT_EQ(index.Find(""), 1u);
  EXPECT_EQ(index.KeyOf(1), "");
  EXPECT_EQ(index.Find(std::string_view("\0", 1)), StringIndex::kAbsent);
}

TEST(StringIndexTest, KeysDifferingOnlyInTheLastByte) {
  StringIndex index;
  const std::string stem(37, 'k');
  for (int byte = 0; byte < 256; ++byte) {
    const std::string key = stem + static_cast<char>(byte);
    EXPECT_EQ(index.Insert(key),
              std::make_pair(static_cast<uint32_t>(byte), true));
  }
  EXPECT_EQ(index.Find(stem), StringIndex::kAbsent);
  for (int byte = 0; byte < 256; ++byte) {
    const std::string key = stem + static_cast<char>(byte);
    EXPECT_EQ(index.Find(key), static_cast<uint32_t>(byte));
    EXPECT_EQ(index.KeyOf(byte), key);
  }
}

// Every key hashes alike: each lookup walks one probe run, and only the
// byte comparison tells keys apart.
struct CollidingHash {
  size_t operator()(std::string_view) const { return 42; }
};

TEST(StringIndexTest, ForcedHashCollisions) {
  BasicStringIndex<CollidingHash> index;
  constexpr uint32_t kKeys = 2000;
  for (uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(index.Insert(Numbered("c", i)), std::make_pair(i, true));
  }
  for (uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(index.Find(Numbered("c", i)), i);
    ASSERT_FALSE(index.Insert(Numbered("c", i)).second);
  }
  EXPECT_EQ(index.Find("c"), (BasicStringIndex<CollidingHash>::kAbsent));
  EXPECT_EQ(index.Find(Numbered("c", kKeys)),
            (BasicStringIndex<CollidingHash>::kAbsent));
  EXPECT_EQ(index.size(), kKeys);
}

TEST(StringIndexTest, CopiesAreIndependent) {
  StringIndex base;
  base.Insert("x");
  base.Insert("y");
  StringIndex copy = base;
  EXPECT_EQ(copy.Insert("z"), std::make_pair(uint32_t{2}, true));
  EXPECT_EQ(base.Find("z"), StringIndex::kAbsent);
  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(copy.Find("y"), 1u);
}

// KeyOf's view is valid until the next Insert: after any number of pool
// growths and slot rehashes, every id still reads its own bytes.
TEST(StringIndexTest, KeysReadBackThroughGrowthAndRehash) {
  StringIndex index;
  std::vector<std::string> keys;
  size_t checked_at = 16;
  for (size_t i = 0; i < 5000; ++i) {
    keys.push_back(std::string(i % 61, 'x') + Numbered("k", i));
    ASSERT_EQ(index.Insert(keys.back()), std::make_pair(uint32_t(i), true));
    if (index.size() * 10 > checked_at * 7) {  // Just past a rehash.
      checked_at *= 2;
      for (uint32_t id = 0; id < index.size(); ++id) {
        ASSERT_EQ(index.KeyOf(id), keys[id]) << "after " << i << " inserts";
      }
    }
  }
  // Lookups never move the pool: views taken now stay valid through them.
  std::vector<std::string_view> views;
  for (uint32_t id = 0; id < index.size(); ++id) {
    views.push_back(index.KeyOf(id));
  }
  for (uint32_t id = 0; id < index.size(); ++id) {
    ASSERT_EQ(index.Find(keys[id]), id);
    ASSERT_FALSE(index.Insert(keys[id]).second);
  }
  for (uint32_t id = 0; id < index.size(); ++id) {
    ASSERT_EQ(views[id].data(), index.KeyOf(id).data());
    ASSERT_EQ(views[id], keys[id]);
  }
}

TEST(StringIndexTest, EmptyNulAndHighByteKeysRoundTrip) {
  using namespace std::string_literals;
  std::vector<std::string> keys = {
      ""s,     "\0"s,   "\0\0"s,   "a\0b"s,       "a\0c"s,
      "a"s,    "\xff"s, "\x80"s, "\x80\xff"s, "caf\xc3\xa9"s};
  for (int byte = 0x80; byte <= 0xff; ++byte) {
    keys.push_back("hi" + std::string(1, static_cast<char>(byte)) + '\0');
  }
  StringIndex index;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Insert(keys[i]), std::make_pair(uint32_t(i), true)) << i;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.Find(keys[i]), i);
    EXPECT_EQ(index.KeyOf(i).size(), keys[i].size());
    EXPECT_EQ(index.KeyOf(i), keys[i]);
  }
  EXPECT_EQ(index.Find("\0\0\0"s), StringIndex::kAbsent);
  EXPECT_EQ(index.Find("a\0"s), StringIndex::kAbsent);
}

// A copy owns its bytes: it reads the same after the original grows far
// past it, and the original after the copy is destroyed.
TEST(StringIndexTest, CopiesKeepTheirBytesWhileTheOtherGrows) {
  StringIndex base;
  for (size_t i = 0; i < 100; ++i) base.Insert(Numbered("base", i));
  auto copy = std::make_unique<StringIndex>(base);
  const std::string_view copied = copy->KeyOf(42);
  for (size_t i = 0; i < 20000; ++i) base.Insert(Numbered("more", i));
  EXPECT_EQ(copied, Numbered("base", 42));
  EXPECT_EQ(copy->size(), 100u);
  EXPECT_EQ(copy->Find(Numbered("more", 7)), StringIndex::kAbsent);
  copy.reset();
  EXPECT_EQ(base.KeyOf(42), Numbered("base", 42));
  EXPECT_EQ(base.Find(Numbered("more", 7)), 107u);
}

}  // namespace
}  // namespace mc
