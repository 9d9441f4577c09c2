#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "table/csv.h"
#include "table/profile.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/tokenized_table.h"
#include "text/normalize.h"
#include "text/tokenize.h"
#include "util/fault_injection.h"

namespace mc {
namespace {

Table MakePeopleTable() {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"Dave Smith", "Altanta", "18"});
  table.AddRow({"Daniel Smith", "LA", "18"});
  table.AddRow({"Joe Welson", "New York", "25"});
  table.AddRow({"Charles Williams", "Chicago", "45"});
  table.AddRow({"Charlie William", "Atlanta", ""});
  return table;
}

TEST(SchemaTest, IndexLookup) {
  Schema schema({{"name", AttributeType::kString},
                 {"age", AttributeType::kNumeric}});
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.IndexOf("age").value(), 1u);
  EXPECT_FALSE(schema.IndexOf("salary").has_value());
  EXPECT_EQ(schema.RequireIndexOf("name"), 0u);
  EXPECT_STREQ(AttributeTypeName(schema.attribute(1).type), "numeric");
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", AttributeType::kString}});
  Schema b({{"x", AttributeType::kString}});
  Schema c({{"x", AttributeType::kNumeric}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(TableTest, AddAndAccess) {
  Table table = MakePeopleTable();
  EXPECT_EQ(table.num_rows(), 5u);
  EXPECT_EQ(table.num_columns(), 3u);
  EXPECT_EQ(table.Value(0, 0), "Dave Smith");
  EXPECT_EQ(table.Value(2, 1), "New York");
  EXPECT_FALSE(table.IsMissing(0, 2));
  EXPECT_TRUE(table.IsMissing(4, 2));
}

TEST(TableTest, TryAddRowValidatesArityAndCellSize) {
  Table table = MakePeopleTable();
  EXPECT_EQ(table.TryAddRow({"Ann Lee", "Boston", "30"}).code(),
            StatusCode::kOk);
  EXPECT_EQ(table.num_rows(), 6u);
  // Wrong arity is a typed rejection, not a crash, and adds nothing.
  EXPECT_EQ(table.TryAddRow({"too", "short"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 6u);

  // A cell past MaxCellBytes would overflow the text plane's uint32 span
  // lengths; it must be rejected up front, not silently truncated later.
  Table::SetMaxCellBytesForTest(16);
  EXPECT_EQ(
      table.TryAddRow({"a cell well beyond sixteen bytes", "x", "1"}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 6u);
  EXPECT_EQ(table.TryAddRow({"short", "x", "1"}).code(), StatusCode::kOk);
  Table::SetMaxCellBytesForTest(0);  // Restore the default.
}

TEST(TableTest, SetRowReplacesInPlaceAndRevalidates) {
  Table table = MakePeopleTable();
  ASSERT_EQ(table.SetRow(1, {"Dan Smith", "", "19"}).code(), StatusCode::kOk);
  EXPECT_EQ(table.num_rows(), 5u);  // In place, no growth.
  EXPECT_EQ(table.Value(1, 0), "Dan Smith");
  EXPECT_TRUE(table.IsMissing(1, 1));   // Missing bits recomputed.
  EXPECT_FALSE(table.IsMissing(1, 0));
  // Out-of-range row and bad arity are typed errors that change nothing.
  EXPECT_EQ(table.SetRow(5, {"x", "y", "z"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.SetRow(0, {"just one"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Value(0, 0), "Dave Smith");
}

TEST(TableTest, NumericValue) {
  Table table = MakePeopleTable();
  EXPECT_EQ(table.NumericValue(0, 2).value(), 18.0);
  EXPECT_FALSE(table.NumericValue(4, 2).has_value());  // missing.
  EXPECT_FALSE(table.NumericValue(0, 0).has_value());  // non-numeric.
}

TEST(TableTest, ParseDouble) {
  EXPECT_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_EQ(ParseDouble(" 42 ").value(), 42.0);
  EXPECT_EQ(ParseDouble("$19.99").value(), 19.99);
  EXPECT_EQ(ParseDouble("-7e2").value(), -700.0);
  EXPECT_FALSE(ParseDouble("12 apples").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

// Every cell and missing bit of `table`, for byte-for-byte comparison.
std::vector<std::pair<std::string, bool>> Cells(const Table& table) {
  std::vector<std::pair<std::string, bool>> cells;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      cells.emplace_back(table.Value(row, c), table.IsMissing(row, c));
    }
  }
  return cells;
}

bool SharesCells(const Table& a, const Table& b) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.Column(c).data() != b.Column(c).data()) return false;
  }
  return a.num_columns() > 0;
}

TEST(TableTest, CopiesShareCells) {
  const Table table = MakePeopleTable();
  const Table copy = table;
  EXPECT_TRUE(SharesCells(copy, table));
  Table assigned;
  assigned = copy;
  EXPECT_TRUE(SharesCells(assigned, table));
  EXPECT_EQ(Cells(assigned), Cells(table));
}

// A write through either copy clones the cells first, so the other copy
// keeps every byte; the writer keeps writing in place afterwards.
TEST(TableTest, WritesThroughEitherCopyLeaveTheOtherIntact) {
  using Write = void (*)(Table&);
  const std::vector<std::pair<const char*, Write>> writes = {
      {"SetRow",
       [](Table& t) {
         ASSERT_TRUE(t.SetRow(2, {"Jo Wilson", " ", "26"}).ok());
       }},
      {"AddRow", [](Table& t) { t.AddRow({"Ann Lee", "Boston", "30"}); }},
      {"TryAddRow",
       [](Table& t) {
         ASSERT_TRUE(t.TryAddRow({"Bo Li", "", "41"}).ok());
       }},
  };
  for (const auto& [name, write] : writes) {
    for (bool write_original : {true, false}) {
      SCOPED_TRACE(std::string(name) +
                   (write_original ? " on the original" : " on the copy"));
      Table original = MakePeopleTable();
      Table copy = original;
      Table& writer = write_original ? original : copy;
      const Table& reader = write_original ? copy : original;
      const auto before = Cells(reader);
      write(writer);
      EXPECT_EQ(Cells(reader), before);
      EXPECT_NE(Cells(writer), before);
      EXPECT_FALSE(SharesCells(writer, reader));
      // Unshared now: a second write edits the writer's own cells.
      const std::string* cells = writer.Column(0).data();
      ASSERT_TRUE(writer.SetRow(0, {"Dave Smyth", "Atlanta", "18"}).ok());
      EXPECT_EQ(writer.Column(0).data(), cells);
      EXPECT_EQ(Cells(reader), before);
    }
  }
}

TEST(TableTest, RejectedRowClonesNothing) {
  const Table original = MakePeopleTable();
  Table copy = original;
  EXPECT_FALSE(copy.TryAddRow({"too", "short"}).ok());
  EXPECT_FALSE(copy.SetRow(9, {"x", "y", "z"}).ok());
  EXPECT_FALSE(copy.SetRow(0, {"just one"}).ok());
  Table::SetMaxCellBytesForTest(4);
  EXPECT_FALSE(copy.TryAddRow({"longer than four", "x", "1"}).ok());
  EXPECT_FALSE(copy.SetRow(0, {"longer than four", "x", "1"}).ok());
  Table::SetMaxCellBytesForTest(0);
  EXPECT_TRUE(SharesCells(copy, original));
  EXPECT_EQ(copy.num_rows(), original.num_rows());
}

TEST(TableTest, MovedFromTableIsEmptyAndReusable) {
  Table table = MakePeopleTable();
  Table other = MakePeopleTable();
  TokenizedTable::BuildAndAttach(table, other);
  ASSERT_NE(table.text_plane(), nullptr);
  const auto cells = Cells(table);

  Table moved = std::move(table);
  EXPECT_EQ(Cells(moved), cells);
  EXPECT_NE(moved.text_plane(), nullptr);
  // The moved-from state is the subject here.
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.num_columns(), 0u);
  EXPECT_EQ(table.text_plane(), nullptr);
  const Table copy_of_empty = table;
  EXPECT_EQ(copy_of_empty.num_rows(), 0u);

  Table assigned = MakePeopleTable();
  assigned = std::move(moved);
  EXPECT_EQ(Cells(assigned), cells);
  EXPECT_EQ(moved.num_rows(), 0u);
  EXPECT_EQ(moved.num_columns(), 0u);

  // Reusable: it takes a new value and accepts rows again.
  table = Table(MakePeopleTable().schema());
  table.AddRow({"Ann Lee", "Boston", "30"});
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.Value(0, 1), "Boston");
  moved = assigned;
  EXPECT_TRUE(SharesCells(moved, assigned));
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(Cells(assigned), cells);
}

// Distinct copies need no coordination: readers of shared cells run while
// another copy is written (the writer clones first) and while more copies
// of the shared table are taken. Meant for the TSan tree.
TEST(TableTest, ReadersOfOneCopyRunWhileAnotherIsWritten) {
  Table base(MakePeopleTable().schema());
  for (int i = 0; i < 400; ++i) {
    base.AddRow({"name " + std::to_string(i), i % 7 ? "city" : " ",
                 std::to_string(i)});
  }
  const auto cells = Cells(base);
  const Table shared = base;
  std::vector<Table> readers(3, shared);
  Table writer = shared;
  std::vector<std::thread> threads;
  for (const Table& reader : readers) {
    threads.emplace_back([&reader, &shared, &cells] {
      for (int pass = 0; pass < 20; ++pass) {
        EXPECT_EQ(Cells(reader), cells);
        const Table copy = shared;
        EXPECT_EQ(copy.num_rows(), cells.size() / 3);
      }
    });
  }
  threads.emplace_back([&writer] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(writer.SetRow(i, {"edited", "", "0"}).ok());
      writer.AddRow({"added", "town", "1"});
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Cells(base), cells);
  EXPECT_EQ(writer.num_rows(), 600u);
  EXPECT_EQ(writer.Value(0, 0), "edited");
}

TEST(CsvTest, RoundTrip) {
  Table table = MakePeopleTable();
  std::string csv = WriteCsvString(table);
  Result<Table> parsed = ReadCsvString(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(parsed->Value(r, c), table.Value(r, c));
    }
  }
}

TEST(CsvTest, QuotedFields) {
  Result<Table> parsed = ReadCsvString(
      "name,desc\n"
      "\"Smith, Dave\",\"said \"\"hi\"\"\"\n"
      "plain,\"multi\nline\"\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->Value(0, 0), "Smith, Dave");
  EXPECT_EQ(parsed->Value(0, 1), "said \"hi\"");
  EXPECT_EQ(parsed->Value(1, 1), "multi\nline");
}

TEST(CsvTest, CrLfLineEndings) {
  Result<Table> parsed = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->Value(1, 1), "4");
}

TEST(CsvTest, MissingTrailingNewline) {
  Result<Table> parsed = ReadCsvString("a,b\n1,2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 1u);
  EXPECT_EQ(parsed->Value(0, 1), "2");
}

TEST(CsvTest, ErrorsAreReported) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1,2,3\n").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n\"open,2\n").ok());
  EXPECT_FALSE(ReadCsvFile("/nonexistent/path.csv").ok());
}

TEST(CsvMalformedTest, RaggedRowReportsLineNumber) {
  Result<Table> parsed = ReadCsvString("a,b\n1,2\n3,4,5\n6,7\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("CSV line 3"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("3 fields, expected 2"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(CsvMalformedTest, UnterminatedQuoteReportsOpeningLine) {
  Result<Table> parsed = ReadCsvString("a,b\n1,2\n3,\"never closed\n5,6\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // Reported at the line the quote opened, not where the input ran out.
  EXPECT_NE(parsed.status().message().find("CSV line 3"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("unterminated"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(CsvMalformedTest, EmbeddedNulByteIsRejected) {
  std::string text("a,b\n1,x\0y\n", 10);
  Result<Table> parsed = ReadCsvString(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("CSV line 2"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("NUL"), std::string::npos)
      << parsed.status().ToString();

  // NUL inside a quoted field is just as suspect.
  std::string quoted("a,b\n1,\"x\0y\"\n", 12);
  Result<Table> parsed_quoted = ReadCsvString(quoted);
  ASSERT_FALSE(parsed_quoted.ok());
  EXPECT_EQ(parsed_quoted.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvMalformedTest, QuoteInsideUnquotedFieldIsRejected) {
  Result<Table> parsed = ReadCsvString("a,b\n1,mid\"dle\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("CSV line 2"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("quote inside unquoted field"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(CsvMalformedTest, LineNumbersCountThroughMultilineQuotedFields) {
  // The quoted field on line 2 spans three physical lines, so the ragged
  // record after it starts on physical line 5.
  Result<Table> parsed =
      ReadCsvString("a,b\n1,\"two\nphysical\nlines\"\n5,6,7\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("CSV line 5"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ProfileTest, MissingAndUniqueRatios) {
  Schema schema({{"city", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"Atlanta"});
  table.AddRow({"Atlanta"});
  table.AddRow({"LA"});
  table.AddRow({""});
  AttributeProfile profile = ProfileAttribute(table, 0);
  EXPECT_DOUBLE_EQ(profile.non_missing_ratio, 0.75);
  EXPECT_DOUBLE_EQ(profile.unique_ratio, 2.0 / 3.0);
  // harmonic mean of 0.75 and 2/3.
  EXPECT_NEAR(profile.SingleTableEScore(),
              2 * 0.75 * (2.0 / 3.0) / (0.75 + 2.0 / 3.0), 1e-12);
}

TEST(ProfileTest, AverageTokenLengthCountsMissingAsZero) {
  Schema schema({{"desc", AttributeType::kString}});
  Table table(schema);
  table.AddRow({"one two three"});
  table.AddRow({""});
  AttributeProfile profile = ProfileAttribute(table, 0);
  EXPECT_DOUBLE_EQ(profile.average_token_length, 1.5);
}

TEST(ProfileTest, ValueSetJaccard) {
  Schema schema({{"gender", AttributeType::kString}});
  Table ta(schema), tb(schema);
  ta.AddRow({"Male"});
  ta.AddRow({"Female"});
  tb.AddRow({"male"});
  tb.AddRow({"unknown"});
  AttributeProfile pa = ProfileAttribute(ta, 0);
  AttributeProfile pb = ProfileAttribute(tb, 0);
  // Normalized values: {male, female} vs {male, unknown}: 1/3.
  EXPECT_NEAR(ValueSetJaccard(pa, pb), 1.0 / 3.0, 1e-12);
}

// `table` with its text plane attached (ProfileAttribute's span path), and
// a copy whose plane build lost a block to an injected fault: the
// truncated plane is never attached, so the copy profiles from strings.
struct SpanAndStringTables {
  Table span;
  Table strings;
};

SpanAndStringTables AttachPlaneOrNot(const Table& table) {
  SpanAndStringTables out{table, table};
  Table span_other = table;
  TokenizedTable::BuildAndAttach(out.span, span_other);
  Table strings_other = table;
  {
    ScopedFaultArm fault("text_plane/build_block", FaultKind::kError, 1);
    TokenizedTable::BuildAndAttach(out.strings, strings_other);
  }
  return out;
}

// The distinct set and token average from first principles: every
// non-missing row's trimmed normalized value is inserted until the set
// passes the cap.
void ExpectReferenceValues(const AttributeProfile& got, const Table& table,
                           size_t column) {
  std::unordered_set<std::string> distinct;
  bool truncated = false;
  size_t tokens = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (table.IsMissing(r, column)) continue;
    tokens += WordTokens(table.Value(r, column)).size();
    if (truncated) continue;
    const std::string normalized = NormalizeForTokens(table.Value(r, column));
    distinct.insert(std::string(TrimWhitespace(normalized)));
    truncated = distinct.size() > AttributeProfile::kMaxDistinctTracked;
  }
  EXPECT_EQ(got.distinct_values, distinct);
  EXPECT_EQ(got.distinct_values_truncated, truncated);
  EXPECT_EQ(got.average_token_length,
            static_cast<double>(tokens) / table.num_rows());
}

void ExpectSameProfile(const AttributeProfile& got,
                       const AttributeProfile& want) {
  EXPECT_EQ(got.distinct_values, want.distinct_values);
  EXPECT_EQ(got.distinct_values_truncated, want.distinct_values_truncated);
  EXPECT_EQ(got.non_missing_ratio, want.non_missing_ratio);
  EXPECT_EQ(got.unique_ratio, want.unique_ratio);
  EXPECT_EQ(got.average_token_length, want.average_token_length);
}

TEST(ProfileTest, SpanPathMatchesStringsOnValuesThatNormalizeAlike) {
  // Raw values that differ only in case, punctuation or whitespace share
  // one normalized value; some normalize to nothing at all.
  Table table(Schema({{"maker", AttributeType::kString}}));
  for (const char* value :
       {"Acme Corp", "acme corp", "ACME, Corp.", "  acme   corp ",
        "acme-corp", "Acme Corp!", "Acme Corp", "!!!", "--", "  ,, ", "",
        "Zeta", "zeta.", " ZETA"}) {
    table.AddRow({value});
  }
  SpanAndStringTables tables = AttachPlaneOrNot(table);
  ASSERT_NE(AttachedTextPlane(tables.span), nullptr);
  ASSERT_EQ(AttachedTextPlane(tables.strings), nullptr);
  const AttributeProfile span = ProfileAttribute(tables.span, 0);
  ExpectSameProfile(span, ProfileAttribute(tables.strings, 0));
  ExpectReferenceValues(span, table, 0);
  EXPECT_EQ(span.distinct_values.count("acme corp"), 1u);
  EXPECT_EQ(span.distinct_values.count(""), 1u);
}

TEST(ProfileTest, SpanPathMatchesStringsPastTheDistinctCap) {
  // More than kMaxDistinctTracked distinct values, each raw spelling
  // repeated in a second case: both paths must stop tracking on the same
  // row, so the truncated sets hold the same values.
  Table table(Schema({{"title", AttributeType::kString}}));
  const size_t distinct = AttributeProfile::kMaxDistinctTracked + 500;
  for (size_t i = 0; i < distinct; ++i) {
    table.AddRow({"Item " + std::to_string(i)});
    if (i % 3 == 0) table.AddRow({"ITEM-" + std::to_string(i) + "."});
  }
  SpanAndStringTables tables = AttachPlaneOrNot(table);
  ASSERT_NE(AttachedTextPlane(tables.span), nullptr);
  ASSERT_EQ(AttachedTextPlane(tables.strings), nullptr);
  const AttributeProfile span = ProfileAttribute(tables.span, 0);
  EXPECT_TRUE(span.distinct_values_truncated);
  ExpectSameProfile(span, ProfileAttribute(tables.strings, 0));
  ExpectReferenceValues(span, table, 0);
}

TEST(InferTypesTest, DetectsNumericCategoricalBooleanString) {
  Schema schema({{"price", AttributeType::kString},
                 {"category", AttributeType::kString},
                 {"in_stock", AttributeType::kString},
                 {"title", AttributeType::kString}});
  Table table(schema);
  const char* categories[] = {"laptop", "phone", "tablet"};
  for (int i = 0; i < 60; ++i) {
    table.AddRow({std::to_string(i * 3.5), categories[i % 3],
                  i % 2 == 0 ? "yes" : "no",
                  "Unique Product Title Number " + std::to_string(i)});
  }
  Schema inferred = InferAttributeTypes(table);
  EXPECT_EQ(inferred.attribute(0).type, AttributeType::kNumeric);
  EXPECT_EQ(inferred.attribute(1).type, AttributeType::kCategorical);
  EXPECT_EQ(inferred.attribute(2).type, AttributeType::kBoolean);
  EXPECT_EQ(inferred.attribute(3).type, AttributeType::kString);
}

TEST(InferTypesTest, MostlyNumericWithNoiseStillNumeric) {
  Schema schema({{"year", AttributeType::kString}});
  Table table(schema);
  for (int i = 0; i < 19; ++i) table.AddRow({std::to_string(1990 + i)});
  table.AddRow({"unknown"});
  Schema inferred = InferAttributeTypes(table);
  EXPECT_EQ(inferred.attribute(0).type, AttributeType::kNumeric);
}

TEST(TableTest, SetSchemaKeepsNames) {
  Table table = MakePeopleTable();
  Schema inferred = InferAttributeTypes(table);
  table.SetSchema(inferred);
  EXPECT_EQ(table.schema().attribute(2).type, AttributeType::kNumeric);
}

}  // namespace
}  // namespace mc
