// Golden-vector and determinism tests for the tokenize-once text plane
// (table/tokenized_table.h): per-cell token streams and sorted ranks must
// reproduce the legacy WordTokens/DistinctWordTokens string tokenizer
// byte-for-byte, across edge-case inputs, thread counts, and fault
// injection.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "mem/arena.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "text/normalize.h"
#include "text/tokenize.h"
#include "util/fault_injection.h"

namespace mc {
namespace {

Table OneColumnTable(const std::vector<std::string>& values) {
  Table table(Schema({{"text", AttributeType::kString}}));
  for (const std::string& value : values) table.AddRow({value});
  return table;
}

// Reconstructs the cell's WordTokens sequence (with duplicates) from the
// plane's stream encoding.
std::vector<std::string> StreamTokens(const TokenizedTable& plane,
                                      size_t side, size_t row,
                                      size_t column) {
  std::vector<std::string> tokens;
  for (uint32_t entry : plane.TokenStream(side, row, column)) {
    tokens.emplace_back(
        plane.word_dictionary().TokenOf(entry & kTextTokenIdMask));
  }
  return tokens;
}

// Reconstructs the cell's DistinctWordTokens sequence (first-appearance
// order) by masking within-cell repeats out of the stream.
std::vector<std::string> DistinctStreamTokens(const TokenizedTable& plane,
                                              size_t side, size_t row,
                                              size_t column) {
  std::vector<std::string> tokens;
  for (uint32_t entry : plane.TokenStream(side, row, column)) {
    if (entry & kTextRepeatBit) continue;
    tokens.emplace_back(plane.word_dictionary().TokenOf(entry));
  }
  return tokens;
}

// The golden edge-case vocabulary: UTF-8/non-ASCII bytes, digit runs,
// empty and whitespace-only cells, punctuation-only cells, within-cell
// repeats, and mixed-case values.
std::vector<std::string> GoldenValues() {
  return {
      "Caf\xc3\xa9 M\xc3\xbcnchen",  // Non-ASCII bytes -> token splitters.
      "abc123 456def 7 89",          // Digit runs stay inside tokens.
      "",                            // Empty cell.
      "   \t  ",                     // Whitespace-only (missing).
      "!!! ... ---",                 // Punctuation-only: zero tokens.
      "the the cat THE the",         // Repeats, case-insensitive.
      "  Leading and trailing  ",
      "MiXeD CaSe ToKeNs",
      "a",           // Single short token.
      "x y x y x",   // Alternating repeats.
  };
}

TEST(TokenizedTableTest, GoldenStreamsMatchLegacyTokenizer) {
  Table table = OneColumnTable(GoldenValues());
  auto plane = TokenizedTable::Build(table, table);
  ASSERT_NE(plane, nullptr);
  ASSERT_FALSE(plane->truncated());
  for (size_t side = 0; side < 2; ++side) {
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::string_view raw = table.Value(r, 0);
      EXPECT_EQ(StreamTokens(*plane, side, r, 0), WordTokens(raw))
          << "row " << r << " value '" << raw << "'";
      EXPECT_EQ(DistinctStreamTokens(*plane, side, r, 0),
                DistinctWordTokens(raw))
          << "row " << r << " value '" << raw << "'";
      EXPECT_EQ(plane->TokenCount(side, r, 0), WordTokens(raw).size());
      EXPECT_EQ(plane->DistinctTokenCount(side, r, 0),
                DistinctWordTokens(raw).size());
      EXPECT_EQ(plane->missing(side, r, 0), table.IsMissing(r, 0));
    }
  }
}

TEST(TokenizedTableTest, FirstAndLastTokens) {
  Table table = OneColumnTable(GoldenValues());
  auto plane = TokenizedTable::Build(table, table);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string_view raw = table.Value(r, 0);
    EXPECT_EQ(plane->FirstTokenOf(0, r, 0), FirstWordToken(raw));
    EXPECT_EQ(plane->LastTokenOf(0, r, 0), LastWordToken(raw));
  }
}

TEST(TokenizedTableTest, SortedRanksAreSortedDistinctGlobalRanks) {
  Table table = OneColumnTable(GoldenValues());
  auto plane = TokenizedTable::Build(table, table);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    CellSpan ranks = plane->SortedRanks(0, r, 0);
    std::vector<uint32_t> expected;
    for (const std::string& token : DistinctWordTokens(table.Value(r, 0))) {
      // Every token must be interned; RankOf over its id gives the rank.
      bool found = false;
      for (size_t id = 0; id < plane->word_dictionary().size(); ++id) {
        if (plane->word_dictionary().TokenOf(static_cast<TokenId>(id)) ==
            token) {
          expected.push_back(
              plane->word_dictionary().RankOf(static_cast<TokenId>(id)));
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "token '" << token << "' not interned";
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(std::vector<uint32_t>(ranks.begin(), ranks.end()), expected);
  }
}

TEST(TokenizedTableTest, QGramPlanesMatchLegacyQGrams) {
  Table table = OneColumnTable(
      {"ab", "a b c", "abcd", "", "  ", "Caf\xc3\xa9", "aaaa", "x"});
  auto plane = TokenizedTable::Build(table, table);
  for (size_t q = 2; q <= 4; ++q) {
    const TokenizedTable::QGramColumn* grams =
        plane->QGramsForColumn(table, table, q, 0);
    ASSERT_NE(grams, nullptr) << "q=" << q;
    for (size_t ra = 0; ra < table.num_rows(); ++ra) {
      // Padded gram counts: QGrams pads with q-1 '#' on both ends and
      // returns distinct grams; the plane must agree on sizes and on every
      // pairwise overlap (gram ids are plane-local, only counts compare).
      std::vector<std::string> legacy_a = QGrams(table.Value(ra, 0), q);
      EXPECT_EQ(grams->Row(0, ra).size(), legacy_a.size())
          << "q=" << q << " row " << ra;
      for (size_t rb = 0; rb < table.num_rows(); ++rb) {
        std::vector<std::string> legacy_b = QGrams(table.Value(rb, 0), q);
        size_t legacy_overlap = 0;
        for (const std::string& gram : legacy_a) {
          for (const std::string& other : legacy_b) {
            if (gram == other) {
              ++legacy_overlap;
              break;
            }
          }
        }
        EXPECT_EQ(SortedSpanOverlap(grams->Row(0, ra), grams->Row(1, rb)),
                  legacy_overlap)
            << "q=" << q << " rows " << ra << "," << rb;
      }
    }
  }
  EXPECT_EQ(plane->QGramsForColumn(table, table, 0, 0), nullptr);
  EXPECT_EQ(plane->QGramsForColumn(table, table, 3, 99), nullptr);
}

// The expected gram column: each cell's QGrams(raw) as ids, sorted. Gram
// ids are dense in first-occurrence order over side 0's rows, then side
// 1's, and QGrams lists a cell's grams in occurrence order, so the ids
// follow from the strings alone.
std::vector<std::vector<uint32_t>> ExpectedGramCells(
    const Table& side0, const Table& side1, size_t q, size_t column) {
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<std::vector<uint32_t>> cells;
  for (const Table* table : {&side0, &side1}) {
    for (size_t row = 0; row < table->num_rows(); ++row) {
      std::vector<uint32_t> cell;
      for (const std::string& gram : QGrams(table->Value(row, column), q)) {
        cell.push_back(
            ids.emplace(gram, static_cast<uint32_t>(ids.size())).first->second);
      }
      std::sort(cell.begin(), cell.end());
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(TokenizedTableTest, QGramCellsEqualQGramsOfTheRawValues) {
  Table a(Schema({{"x", AttributeType::kString},
                  {"y", AttributeType::kString}}));
  Table b(a.schema());
  for (const std::string& value : GoldenValues()) {
    a.AddRow({value, "Ab-" + value});
  }
  for (const char* value : {"  CAT  the", "x.y,z", "", "aaaa", "Ab, cd"}) {
    b.AddRow({value, std::string(value) + "!"});
  }
  Table span_a = a;
  Table span_b = b;
  auto plane = TokenizedTable::BuildAndAttach(span_a, span_b);
  ASSERT_EQ(SharedTextPlane(span_a, span_b), plane.get());
  for (size_t q = 2; q <= 4; ++q) {
    for (size_t column = 0; column < 2; ++column) {
      const std::vector<std::vector<uint32_t>> expected =
          ExpectedGramCells(a, b, q, column);
      // Passing the pair in either order grams each table on its own side.
      const TokenizedTable::QGramColumn* grams =
          column == 0 ? plane->QGramsForColumn(span_a, span_b, q, column)
                      : plane->QGramsForColumn(span_b, span_a, q, column);
      ASSERT_NE(grams, nullptr);
      size_t cell = 0;
      for (size_t side = 0; side < 2; ++side) {
        for (size_t row = 0; row < plane->num_rows(side); ++row, ++cell) {
          CellSpan got = grams->Row(side, row);
          EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
                    expected[cell])
              << "q=" << q << " column " << column << " side " << side
              << " row " << row;
        }
      }
    }
  }

  // A plane cut short by a fault has no gram columns: its consumers gram
  // QGrams(raw) on their string path.
  Table strings_a = a;
  Table strings_b = b;
  ScopedFaultArm fault("text_plane/build_block", FaultKind::kError, 1);
  auto truncated = TokenizedTable::BuildAndAttach(strings_a, strings_b);
  EXPECT_EQ(SharedTextPlane(strings_a, strings_b), nullptr);
  EXPECT_EQ(truncated->QGramsForColumn(strings_a, strings_b, 3, 0), nullptr);
}

TEST(TokenizedTableTest, FootprintIsTheCsrArrays) {
  // The arena holds, per side, two offset tables of cells + 1 entries, one
  // missing byte per cell, and the stream and sorted-rank arenas, each
  // cache-line aligned, reserved as two page-rounded chunks. Nothing per
  // cell beyond that: a 4-byte array over these 2 x 6000 cells would not
  // fit in the rounding slack.
  std::vector<std::string> values;
  for (size_t i = 0; i < 3000; ++i) {
    values.push_back("tok" + std::to_string(i % 97) + " Word" +
                     std::to_string(i % 13) + " tok" + std::to_string(i % 97));
  }
  Table a(Schema({{"x", AttributeType::kString},
                  {"y", AttributeType::kString}}));
  for (size_t i = 0; i < values.size(); ++i) {
    a.AddRow({values[i], i % 5 == 0 ? "" : values[values.size() - 1 - i]});
  }
  Table b = a;
  auto plane = TokenizedTable::Build(a, b);
  ASSERT_FALSE(plane->truncated());
  auto page = [](size_t bytes) { return (bytes + 4095) & ~size_t{4095}; };
  size_t meta = 0;
  size_t arenas = 0;
  for (size_t side = 0; side < 2; ++side) {
    const size_t cells = plane->num_rows(side) * plane->num_columns();
    size_t stream = 0;
    size_t sorted = 0;
    for (size_t row = 0; row < plane->num_rows(side); ++row) {
      for (size_t column = 0; column < plane->num_columns(); ++column) {
        stream += plane->TokenCount(side, row, column);
        sorted += plane->DistinctTokenCount(side, row, column);
      }
    }
    meta += 2 * mem::Arena::AlignedSize((cells + 1) * sizeof(uint32_t)) +
            mem::Arena::AlignedSize(cells);
    arenas += mem::Arena::AlignedSize(stream * sizeof(uint32_t)) +
              mem::Arena::AlignedSize(sorted * sizeof(uint32_t));
  }
  EXPECT_LE(plane->MemoryBytes(), page(meta) + page(arenas));
  EXPECT_GE(plane->MemoryBytes(), meta + arenas);
}

TEST(TokenizedTableTest, OffsetsFitThirtyTwoBits) {
  // A side with more stream or sorted entries than a uint32_t offset can
  // address is refused like a refused memory charge (truncated plane,
  // rejected delta), never wrapped.
  EXPECT_TRUE(TextPlaneOffsetsFit(0));
  EXPECT_TRUE(TextPlaneOffsetsFit(UINT32_MAX));
  EXPECT_FALSE(TextPlaneOffsetsFit(uint64_t{UINT32_MAX} + 1));
  EXPECT_FALSE(TextPlaneOffsetsFit(UINT64_MAX));
}

TEST(TokenizedTableTest, AttachmentGuards) {
  Table a = OneColumnTable({"one two", "three"});
  Table b = OneColumnTable({"four", "five six"});
  EXPECT_EQ(AttachedTextPlane(a), nullptr);
  EXPECT_EQ(SharedTextPlane(a, b), nullptr);

  auto plane = TokenizedTable::BuildAndAttach(a, b);
  EXPECT_EQ(AttachedTextPlane(a), plane.get());
  EXPECT_EQ(AttachedTextPlane(b), plane.get());
  EXPECT_EQ(SharedTextPlane(a, b), plane.get());
  EXPECT_EQ(a.text_plane_side(), 0u);
  EXPECT_EQ(b.text_plane_side(), 1u);

  // Mutating a table detaches its plane: stale spans must never be served.
  a.AddRow({"seven"});
  EXPECT_EQ(AttachedTextPlane(a), nullptr);
  EXPECT_EQ(SharedTextPlane(a, b), nullptr);
  EXPECT_EQ(AttachedTextPlane(b), plane.get());
}

TEST(TokenizedTableTest, MissingBitmapMatchesTrimEmptiness) {
  Table table(Schema({{"x", AttributeType::kString},
                      {"y", AttributeType::kString}}));
  table.AddRow({"value", ""});
  table.AddRow({"  ", "\t\n"});
  table.AddRow({" v ", "w"});
  EXPECT_FALSE(table.IsMissing(0, 0));
  EXPECT_TRUE(table.IsMissing(0, 1));
  EXPECT_TRUE(table.IsMissing(1, 0));
  EXPECT_TRUE(table.IsMissing(1, 1));
  EXPECT_FALSE(table.IsMissing(2, 0));
  EXPECT_FALSE(table.IsMissing(2, 1));
}

class TokenizedTableDeterminismTest : public ::testing::Test {};

TEST_F(TokenizedTableDeterminismTest, BitIdenticalAcrossThreadCounts) {
  std::vector<std::string> values;
  for (size_t i = 0; i < 100; ++i) {
    values.push_back("tok" + std::to_string(i % 13) + " shared tok" +
                     std::to_string(i % 7) + (i % 5 == 0 ? "" : " extra"));
  }
  Table a = OneColumnTable(values);
  std::reverse(values.begin(), values.end());
  Table b = OneColumnTable(values);

  TextPlaneBuildOptions base;
  base.block_rows = 8;  // Many blocks even at these sizes.
  base.num_threads = 1;
  auto reference = TokenizedTable::Build(a, b, base);
  for (size_t threads : {2, 4, 8}) {
    TextPlaneBuildOptions options = base;
    options.num_threads = threads;
    auto plane = TokenizedTable::Build(a, b, options);
    ASSERT_FALSE(plane->truncated());
    EXPECT_EQ(plane->word_dictionary().size(),
              reference->word_dictionary().size());
    for (size_t side = 0; side < 2; ++side) {
      for (size_t r = 0; r < plane->num_rows(side); ++r) {
        CellSpan s = plane->TokenStream(side, r, 0);
        CellSpan ref = reference->TokenStream(side, r, 0);
        ASSERT_EQ(s.size(), ref.size()) << threads << " threads, row " << r;
        EXPECT_TRUE(std::equal(s.begin(), s.end(), ref.begin()))
            << threads << " threads, row " << r;
        CellSpan sr = plane->SortedRanks(side, r, 0);
        CellSpan refr = reference->SortedRanks(side, r, 0);
        ASSERT_EQ(sr.size(), refr.size());
        EXPECT_TRUE(std::equal(sr.begin(), sr.end(), refr.begin()));
      }
    }
  }
}

TEST_F(TokenizedTableDeterminismTest, InjectedFaultTruncatesAndNeverAttaches) {
  Table a = OneColumnTable({"one two", "three four", "five", "six seven"});
  Table b = OneColumnTable({"eight", "nine ten"});
  FaultRegistry::Instance().ArmNthHit("text_plane/build_block",
                                      FaultKind::kError, 1);
  TextPlaneBuildOptions options;
  options.block_rows = 2;
  options.num_threads = 1;
  TextPlaneBuildStats stats;
  auto plane = TokenizedTable::BuildAndAttach(a, b, options, &stats);
  FaultRegistry::Instance().Reset();
  EXPECT_TRUE(plane->truncated());
  EXPECT_EQ(stats.dropped_blocks, 1u);
  EXPECT_EQ(AttachedTextPlane(a), nullptr);
  EXPECT_EQ(SharedTextPlane(a, b), nullptr);
  EXPECT_EQ(plane->QGramsForColumn(a, b, 3, 0), nullptr);
}

TEST_F(TokenizedTableDeterminismTest, ThrowingFaultIsAbsorbed) {
  Table a = OneColumnTable({"one two", "three four", "five", "six seven"});
  Table b = OneColumnTable({"eight", "nine ten"});
  for (size_t threads : {size_t{1}, size_t{4}}) {
    FaultRegistry::Instance().ArmNthHit("text_plane/build_block",
                                        FaultKind::kThrow, 2);
    TextPlaneBuildOptions options;
    options.block_rows = 2;
    options.num_threads = threads;
    auto plane = TokenizedTable::Build(a, b, options);
    FaultRegistry::Instance().Reset();
    EXPECT_TRUE(plane->truncated());
    EXPECT_GE(plane->build_stats().dropped_blocks, 1u);
  }
}

TEST_F(TokenizedTableDeterminismTest, CancellationTruncates) {
  Table a = OneColumnTable({"one", "two", "three", "four"});
  Table b = OneColumnTable({"five", "six"});
  TextPlaneBuildOptions options;
  options.block_rows = 1;
  options.num_threads = 1;
  options.run_context = RunContext::Cancellable();
  options.run_context.Cancel();
  auto plane = TokenizedTable::Build(a, b, options);
  EXPECT_TRUE(plane->truncated());
  EXPECT_EQ(plane->build_stats().dropped_blocks,
            plane->build_stats().blocks);
  // Dropped cells read as empty, not garbage.
  EXPECT_EQ(plane->TokenCount(0, 0, 0), 0u);
}

}  // namespace
}  // namespace mc
