#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/config.h"
#include "config/config_generator.h"
#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "table/profile.h"
#include "table/table.h"
#include "table/tokenized_table.h"

namespace mc {
namespace {

TEST(ConfigMaskTest, Helpers) {
  ConfigMask mask = 0b1011;
  EXPECT_EQ(ConfigSize(mask), 3u);
  EXPECT_TRUE(ConfigContains(mask, 0));
  EXPECT_TRUE(ConfigContains(mask, 1));
  EXPECT_FALSE(ConfigContains(mask, 2));
  EXPECT_TRUE(ConfigContains(mask, 3));
  EXPECT_EQ(ConfigWithout(mask, 1), 0b1001u);
  EXPECT_EQ(ConfigWithout(mask, 2), mask);
}

TEST(ConfigMaskTest, FullMask) {
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  EXPECT_EQ(attrs.FullMask(), 0b111u);
}

TEST(ConfigMaskTest, Description) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"age", AttributeType::kString}});
  PromisingAttributes attrs;
  attrs.columns = {0, 1};
  EXPECT_EQ(attrs.ConfigDescription(0b11, schema), "{name, city}");
  EXPECT_EQ(attrs.ConfigDescription(0b10, schema), "{city}");
}

// Builds a pair of tables with given column contents.
std::pair<Table, Table> MakeTables(const std::vector<Attribute>& attributes,
                                   std::vector<std::vector<std::string>> rows_a,
                                   std::vector<std::vector<std::string>> rows_b) {
  Schema schema(attributes);
  Table a(schema), b(schema);
  for (auto& row : rows_a) a.AddRow(std::move(row));
  for (auto& row : rows_b) b.AddRow(std::move(row));
  return {std::move(a), std::move(b)};
}

TEST(SelectPromisingTest, DropsNumericAndDivergentCategorical) {
  auto [a, b] = MakeTables(
      {{"name", AttributeType::kString},
       {"price", AttributeType::kNumeric},
       {"gender", AttributeType::kCategorical},
       {"city", AttributeType::kString}},
      {{"dave smith", "10", "male", "atlanta"},
       {"joe welson", "20", "female", "ny"}},
      {{"david smith", "11", "m", "atlanta"},
       {"joe wilson", "21", "f", "nyc"}});
  Result<PromisingAttributes> result = SelectPromisingAttributes(a, b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // price dropped (numeric); gender dropped ({male,female} vs {m,f});
  // name and city survive.
  ASSERT_EQ(result->columns.size(), 2u);
  EXPECT_EQ(result->columns[0], 0u);
  EXPECT_EQ(result->columns[1], 3u);
}

TEST(SelectPromisingTest, KeepsAgreeingCategorical) {
  auto [a, b] = MakeTables(
      {{"name", AttributeType::kString},
       {"state", AttributeType::kCategorical}},
      {{"x", "wi"}, {"y", "ca"}, {"z", "wi"}},
      {{"p", "wi"}, {"q", "ca"}});
  Result<PromisingAttributes> result = SelectPromisingAttributes(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns.size(), 2u);
}

TEST(SelectPromisingTest, FailsWhenNothingSurvives) {
  auto [a, b] = MakeTables({{"price", AttributeType::kNumeric}},
                           {{"10"}}, {{"20"}});
  Result<PromisingAttributes> result = SelectPromisingAttributes(a, b);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SelectPromisingTest, RejectsMismatchedSchemas) {
  Table a(Schema({{"x", AttributeType::kString}}));
  Table b(Schema({{"y", AttributeType::kString}}));
  Result<PromisingAttributes> result = SelectPromisingAttributes(a, b);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectPromisingTest, CapsAttributeCount) {
  std::vector<Attribute> attributes;
  std::vector<std::string> row;
  for (int i = 0; i < 20; ++i) {
    attributes.push_back({"attr" + std::to_string(i), AttributeType::kString});
    row.push_back("value" + std::to_string(i));
  }
  auto [a, b] = MakeTables(attributes, {row, row}, {row});
  ConfigGeneratorOptions options;
  options.max_attributes = 6;
  Result<PromisingAttributes> result =
      SelectPromisingAttributes(a, b, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns.size(), 6u);
  EXPECT_TRUE(std::is_sorted(result->columns.begin(), result->columns.end()));
}

PromisingAttributes FourAttributes(std::vector<double> e_scores,
                                   std::vector<double> avg_a,
                                   std::vector<double> avg_b) {
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2, 3};
  attrs.e_scores = std::move(e_scores);
  attrs.avg_len_a = std::move(avg_a);
  attrs.avg_len_b = std::move(avg_b);
  return attrs;
}

TEST(ConfigTreeTest, SizeFollowsTriangularFormula) {
  // Paper §3.2: |T|(|T|+1)/2 configs of sizes |T|, |T|-1, ..., 1.
  for (size_t n = 1; n <= 6; ++n) {
    PromisingAttributes attrs;
    for (size_t i = 0; i < n; ++i) {
      attrs.columns.push_back(i);
      attrs.e_scores.push_back(1.0 / (1.0 + i));
      attrs.avg_len_a.push_back(2.0);
      attrs.avg_len_b.push_back(2.0);
    }
    ConfigTree tree = GenerateConfigTree(attrs);
    EXPECT_EQ(tree.size(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(ConfigTreeTest, PaperFigureThreeDefaultShape) {
  // Figure 3.a: T = {n, c, s, d}, e(n) > e(d) > e(c) > e(s); all short.
  // Bits: n=0, c=1, s=2, d=3.
  PromisingAttributes attrs = FourAttributes(
      /*e_scores=*/{0.9, 0.5, 0.3, 0.7},
      /*avg_a=*/{2, 1, 1, 2}, /*avg_b=*/{2, 1, 1, 2});
  ConfigGeneratorOptions options;
  options.handle_long_attributes = false;
  ConfigTree tree = GenerateConfigTree(attrs, options);
  ASSERT_EQ(tree.size(), 10u);
  // Root ncsd.
  EXPECT_EQ(tree.nodes[0].mask, 0b1111u);
  EXPECT_EQ(tree.nodes[0].parent, -1);
  // Level 2: csd, nsd, ncd, ncs (in bit-removal order: without n, c, s, d).
  EXPECT_EQ(tree.nodes[1].mask, 0b1110u);  // csd.
  EXPECT_EQ(tree.nodes[2].mask, 0b1101u);  // nsd.
  EXPECT_EQ(tree.nodes[3].mask, 0b1011u);  // ncd.
  EXPECT_EQ(tree.nodes[4].mask, 0b0111u);  // ncs.
  // Expansion excludes s (lowest e-score) -> ncd expanded:
  // children cd, nd, nc.
  EXPECT_EQ(tree.nodes[5].mask, 0b1010u);  // cd.
  EXPECT_EQ(tree.nodes[6].mask, 0b1001u);  // nd.
  EXPECT_EQ(tree.nodes[7].mask, 0b0011u);  // nc.
  EXPECT_EQ(tree.nodes[5].parent, 3);
  // Next exclusion: c -> nd expanded: children d, n.
  EXPECT_EQ(tree.nodes[8].mask, 0b1000u);  // d.
  EXPECT_EQ(tree.nodes[9].mask, 0b0001u);  // n.
  EXPECT_EQ(tree.nodes[8].parent, 6);
}

TEST(ConfigTreeTest, PaperFigureThreeLongAttributeShape) {
  // Figure 3.b: d is long (dominates the concatenation), so the level-2
  // expansion picks ncs instead of ncd, producing cs, ns, nc, then c, n.
  PromisingAttributes attrs = FourAttributes(
      /*e_scores=*/{0.9, 0.5, 0.3, 0.7},
      /*avg_a=*/{3, 2, 2, 60}, /*avg_b=*/{3, 2, 2, 60});
  ConfigGeneratorOptions options;
  options.handle_long_attributes = true;
  ConfigTree tree = GenerateConfigTree(attrs, options);
  ASSERT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.nodes[4].mask, 0b0111u);  // ncs.
  // ncs must be the expanded node: its children are cs, ns, nc.
  EXPECT_EQ(tree.nodes[5].mask, 0b0110u);  // cs.
  EXPECT_EQ(tree.nodes[6].mask, 0b0101u);  // ns.
  EXPECT_EQ(tree.nodes[7].mask, 0b0011u);  // nc.
  EXPECT_EQ(tree.nodes[5].parent, 4);
  // No long attribute below; expansion excludes s -> nc expanded: c, n.
  EXPECT_EQ(tree.nodes[8].mask, 0b0010u);  // c.
  EXPECT_EQ(tree.nodes[9].mask, 0b0001u);  // n.
}

TEST(FindLongAttrTest, DetectsDominantAttribute) {
  PromisingAttributes attrs = FourAttributes(
      {0.9, 0.5, 0.3, 0.7}, {3, 2, 2, 60}, {3, 2, 2, 60});
  // Default expansion candidate at level 2 is ncd (drop s, bit 2).
  int long_bit = FindLongAttr(0b1011, attrs, 0.2);
  EXPECT_EQ(long_bit, 3);  // d.
}

TEST(FindLongAttrTest, NoLongAttributeForBalancedLengths) {
  PromisingAttributes attrs = FourAttributes(
      {0.9, 0.5, 0.3, 0.7}, {2, 2, 2, 2}, {2, 2, 2, 2});
  EXPECT_EQ(FindLongAttr(0b1011, attrs, 0.2), -1);
}

TEST(FindLongAttrTest, SingletonConfigHasNoLongAttribute) {
  PromisingAttributes attrs = FourAttributes(
      {0.9, 0.5, 0.3, 0.7}, {2, 2, 2, 50}, {2, 2, 2, 50});
  EXPECT_EQ(FindLongAttr(0b1000, attrs, 0.2), -1);
}

TEST(ConfigTreeTest, AllConfigsDistinct) {
  PromisingAttributes attrs = FourAttributes(
      {0.9, 0.5, 0.3, 0.7}, {3, 2, 2, 60}, {3, 2, 2, 60});
  ConfigTree tree = GenerateConfigTree(attrs);
  std::vector<ConfigMask> masks;
  for (const ConfigNode& node : tree.nodes) masks.push_back(node.mask);
  std::sort(masks.begin(), masks.end());
  EXPECT_EQ(std::unique(masks.begin(), masks.end()), masks.end());
}

TEST(ConfigTreeTest, ChildMasksAreSubsetsOfParent) {
  PromisingAttributes attrs = FourAttributes(
      {0.9, 0.5, 0.3, 0.7}, {3, 2, 2, 10}, {3, 2, 2, 12});
  ConfigTree tree = GenerateConfigTree(attrs);
  for (const ConfigNode& node : tree.nodes) {
    if (node.parent < 0) continue;
    ConfigMask parent_mask = tree.nodes[node.parent].mask;
    EXPECT_EQ(node.mask & parent_mask, node.mask);
    EXPECT_EQ(ConfigSize(node.mask) + 1, ConfigSize(parent_mask));
  }
}

TEST(ConfigTreeTest, SingleAttribute) {
  PromisingAttributes attrs;
  attrs.columns = {0};
  attrs.e_scores = {1.0};
  attrs.avg_len_a = {2.0};
  attrs.avg_len_b = {2.0};
  ConfigTree tree = GenerateConfigTree(attrs);
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.nodes[0].mask, 0b1u);
}

void ExpectSameAttributes(const PromisingAttributes& got,
                          const PromisingAttributes& want,
                          const std::string& label) {
  EXPECT_EQ(got.columns, want.columns) << label;
  EXPECT_EQ(got.e_scores, want.e_scores) << label;
  EXPECT_EQ(got.avg_len_a, want.avg_len_a) << label;
  EXPECT_EQ(got.avg_len_b, want.avg_len_b) << label;
}

void ExpectSameTree(const ConfigTree& got, const ConfigTree& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.nodes[i].mask, want.nodes[i].mask) << label;
    EXPECT_EQ(got.nodes[i].parent, want.nodes[i].parent) << label;
    EXPECT_EQ(got.nodes[i].children, want.nodes[i].children) << label;
  }
}

// Type inference hands its profiles of table A to attribute selection, so
// a session profiles A once. The profiles must be ProfileTable's, and the
// selection, e-scores and tree the same as when selection profiles A
// itself — over the text plane and over strings.
TEST(SelectPromisingTest, InferenceProfilesGiveTheSameSelection) {
  for (const char* name : {"A-G", "W-A", "F-Z"}) {
    for (bool plane : {true, false}) {
      const std::string label =
          std::string(name) + (plane ? " plane" : " strings");
      Result<datagen::GeneratedDataset> generated =
          datagen::GenerateByName(name, 0.1, 3);
      ASSERT_TRUE(generated.ok()) << generated.status().ToString();
      Table& a = generated->table_a;
      Table& b = generated->table_b;
      if (plane) TokenizedTable::BuildAndAttach(a, b);
      std::vector<AttributeProfile> profiles;
      a.SetSchema(InferAttributeTypes(a, &profiles));
      b.SetSchema(a.schema());
      EXPECT_TRUE(InferAttributeTypes(a) == a.schema()) << label;

      const std::vector<AttributeProfile> own = ProfileTable(a);
      ASSERT_EQ(profiles.size(), own.size()) << label;
      for (size_t c = 0; c < own.size(); ++c) {
        EXPECT_EQ(profiles[c].non_missing_ratio, own[c].non_missing_ratio);
        EXPECT_EQ(profiles[c].unique_ratio, own[c].unique_ratio);
        EXPECT_EQ(profiles[c].average_token_length,
                  own[c].average_token_length);
        EXPECT_EQ(profiles[c].distinct_values, own[c].distinct_values);
        EXPECT_EQ(profiles[c].distinct_values_truncated,
                  own[c].distinct_values_truncated);
      }

      Result<PromisingAttributes> shared =
          SelectPromisingAttributes(a, b, {}, &profiles);
      Result<PromisingAttributes> fresh = SelectPromisingAttributes(a, b);
      ASSERT_TRUE(shared.ok() && fresh.ok()) << label;
      ExpectSameAttributes(*shared, *fresh, label);
      ExpectSameTree(GenerateConfigTree(*shared), GenerateConfigTree(*fresh),
                     label);

      // DebugSession::Create takes the shared path.
      MatchCatcherOptions options;
      options.joint.k = 20;
      options.joint.num_threads = 1;
      Result<DebugSession> session = DebugSession::Create(
          generated->table_a, generated->table_b, CandidateSet(), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      ExpectSameAttributes(session->attributes(), *fresh, label + " session");
      ExpectSameTree(session->config_tree(), GenerateConfigTree(*fresh),
                     label + " session");
    }
  }
}

}  // namespace
}  // namespace mc
