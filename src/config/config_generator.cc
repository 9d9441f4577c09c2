#include "config/config_generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace mc {

namespace {

// Bit of `mask` whose attribute has the lowest e-score (the attribute the
// default expansion step excludes). Ties break toward the lower bit index
// for determinism.
int MinEScoreBit(ConfigMask mask, const PromisingAttributes& attributes) {
  int best_bit = -1;
  double best_score = 0.0;
  for (size_t bit = 0; bit < attributes.size(); ++bit) {
    if (!ConfigContains(mask, bit)) continue;
    double score = attributes.e_scores[bit];
    if (best_bit < 0 || score < best_score) {
      best_bit = static_cast<int>(bit);
      best_score = score;
    }
  }
  return best_bit;
}

// The configs of the *default* subtree rooted at `q` (excluding q itself):
// what the generator would produce below q using only e-scores. Used by
// FindLongAttr to ask "would f overwhelm the configs we are about to
// generate?".
std::vector<ConfigMask> DefaultSubtreeConfigs(
    ConfigMask q, const PromisingAttributes& attributes) {
  std::vector<ConfigMask> configs;
  ConfigMask current = q;
  while (ConfigSize(current) > 1) {
    for (size_t bit = 0; bit < attributes.size(); ++bit) {
      if (!ConfigContains(current, bit)) continue;
      configs.push_back(ConfigWithout(current, bit));
    }
    int exclude = MinEScoreBit(current, attributes);
    MC_CHECK_GE(exclude, 0);
    current = ConfigWithout(current, static_cast<size_t>(exclude));
  }
  return configs;
}

// Sum of average token lengths of the attributes in `mask` for one table.
double ConfigAverageLength(ConfigMask mask,
                           const std::vector<double>& avg_lengths) {
  double total = 0.0;
  for (size_t bit = 0; bit < avg_lengths.size(); ++bit) {
    if (ConfigContains(mask, bit)) total += avg_lengths[bit];
  }
  return total;
}

}  // namespace

Result<PromisingAttributes> SelectPromisingAttributes(
    const Table& table_a, const Table& table_b,
    const ConfigGeneratorOptions& options,
    const std::vector<AttributeProfile>* profiles_a_in) {
  if (!(table_a.schema() == table_b.schema())) {
    return Status::InvalidArgument(
        "tables A and B must share one schema (different-schema matching is "
        "future work, as in the paper)");
  }
  // Profiling dominates this phase; check the context around each table
  // and once more before assembling the result.
  if (options.run_context.Cancelled()) {
    return Status::DeadlineExceeded(
        "config generation cancelled before profiling");
  }
  std::vector<AttributeProfile> own_profiles_a;
  if (profiles_a_in == nullptr) {
    own_profiles_a = ProfileTable(table_a);
    if (options.run_context.Cancelled()) {
      return Status::DeadlineExceeded(
          "config generation cancelled while profiling table A");
    }
  } else {
    MC_CHECK_EQ(profiles_a_in->size(), table_a.num_columns());
  }
  const std::vector<AttributeProfile>& profiles_a =
      profiles_a_in != nullptr ? *profiles_a_in : own_profiles_a;
  std::vector<AttributeProfile> profiles_b = ProfileTable(table_b);
  if (options.run_context.Cancelled()) {
    return Status::DeadlineExceeded(
        "config generation cancelled while profiling table B");
  }

  PromisingAttributes result;
  for (size_t column = 0; column < table_a.num_columns(); ++column) {
    AttributeType type = table_a.schema().attribute(column).type;
    if (type == AttributeType::kNumeric) continue;  // §3.2: drop numerics.
    if (type == AttributeType::kCategorical ||
        type == AttributeType::kBoolean) {
      double value_jaccard =
          ValueSetJaccard(profiles_a[column], profiles_b[column]);
      if (value_jaccard < options.categorical_value_jaccard_threshold) {
        continue;  // Value sets diverge across the tables; drop.
      }
    }
    result.columns.push_back(column);
    result.e_scores.push_back(profiles_a[column].SingleTableEScore() *
                              profiles_b[column].SingleTableEScore());
    result.avg_len_a.push_back(profiles_a[column].average_token_length);
    result.avg_len_b.push_back(profiles_b[column].average_token_length);
  }
  if (result.columns.empty()) {
    return Status::FailedPrecondition(
        "no promising attributes survive selection; the tables have only "
        "numeric or divergent categorical attributes");
  }
  if (result.columns.size() > options.max_attributes) {
    // Keep the attributes with the highest e-scores.
    std::vector<size_t> order(result.columns.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      if (result.e_scores[x] != result.e_scores[y]) {
        return result.e_scores[x] > result.e_scores[y];
      }
      return x < y;
    });
    order.resize(options.max_attributes);
    std::sort(order.begin(), order.end());  // Preserve column order.
    PromisingAttributes trimmed;
    for (size_t index : order) {
      trimmed.columns.push_back(result.columns[index]);
      trimmed.e_scores.push_back(result.e_scores[index]);
      trimmed.avg_len_a.push_back(result.avg_len_a[index]);
      trimmed.avg_len_b.push_back(result.avg_len_b[index]);
    }
    result = std::move(trimmed);
  }
  return result;
}

int FindLongAttr(ConfigMask expansion_candidate,
                 const PromisingAttributes& attributes, double delta) {
  const ConfigMask q = expansion_candidate;
  if (ConfigSize(q) <= 1) return -1;

  const double al_q_a = ConfigAverageLength(q, attributes.avg_len_a);
  const double al_q_b = ConfigAverageLength(q, attributes.avg_len_b);
  if (al_q_a <= 0.0 || al_q_b <= 0.0) return -1;
  const double length_factor =
      (1.0 + delta) * std::max(al_q_a, al_q_b) / (al_q_a + al_q_b);
  const double q_size = static_cast<double>(ConfigSize(q));

  std::vector<ConfigMask> subtree = DefaultSubtreeConfigs(q, attributes);

  int best_bit = -1;
  double best_beta = 0.0;
  for (size_t bit = 0; bit < attributes.size(); ++bit) {
    if (!ConfigContains(q, bit)) continue;
    // β approximated with average lengths (paper §3.2).
    double beta = std::min(attributes.avg_len_a[bit] / al_q_a,
                           attributes.avg_len_b[bit] / al_q_b);
    size_t containing = 0;
    size_t overwhelmed = 0;
    for (ConfigMask r : subtree) {
      if (!ConfigContains(r, bit)) continue;
      // Singleton configs {f} carry no evidence: switching from q to {f}
      // trivially keeps f dominant, and R2 degenerates (the theorem's
      // "remaining length distributed among the remaining attributes"
      // premise needs at least one attribute besides f).
      if (ConfigSize(r) < 2) continue;
      ++containing;
      // R2 with |q ∩ r| = |r| (r is a subset of q).
      double rhs = 1.0 - (q_size - 1.0) /
                             static_cast<double>(ConfigSize(r)) *
                             length_factor;
      if (beta >= rhs) ++overwhelmed;
    }
    if (containing == 0) continue;
    if (2 * overwhelmed >= containing) {
      // f is "too long". The paper argues at most one attribute qualifies;
      // under our average-length approximation several may, so prefer the
      // one that dominates the config length most.
      if (best_bit < 0 || beta > best_beta) {
        best_bit = static_cast<int>(bit);
        best_beta = beta;
      }
    }
  }
  return best_bit;
}

ConfigTree GenerateConfigTree(const PromisingAttributes& attributes,
                              const ConfigGeneratorOptions& options) {
  MC_CHECK_GT(attributes.size(), 0u);
  ConfigTree tree;
  ConfigNode root;
  root.mask = attributes.FullMask();
  tree.nodes.push_back(root);

  int current = 0;
  while (ConfigSize(tree.nodes[current].mask) > 1) {
    const ConfigMask mask = tree.nodes[current].mask;
    const size_t depth = tree.nodes[current].depth;

    // Add every child (remove each attribute in turn).
    int first_child = static_cast<int>(tree.nodes.size());
    for (size_t bit = 0; bit < attributes.size(); ++bit) {
      if (!ConfigContains(mask, bit)) continue;
      ConfigNode child;
      child.mask = ConfigWithout(mask, bit);
      child.parent = current;
      child.depth = depth + 1;
      tree.nodes[current].children.push_back(
          static_cast<int>(tree.nodes.size()));
      tree.nodes.push_back(child);
    }

    if (ConfigSize(mask) == 2) break;  // Children are singletons; done.

    // Pick the child to expand: default excludes the min-e-score attribute;
    // FindLongAttr may override (Example 3.3).
    int exclude_bit = MinEScoreBit(mask, attributes);
    MC_CHECK_GE(exclude_bit, 0);
    ConfigMask default_child =
        ConfigWithout(mask, static_cast<size_t>(exclude_bit));
    ConfigMask chosen = default_child;
    if (options.handle_long_attributes) {
      int long_bit = FindLongAttr(default_child, attributes, options.delta);
      if (long_bit >= 0) chosen = ConfigWithout(mask, long_bit);
    }

    // Find the child node with the chosen mask.
    int next = -1;
    for (int child = first_child;
         child < static_cast<int>(tree.nodes.size()); ++child) {
      if (tree.nodes[child].mask == chosen) {
        next = child;
        break;
      }
    }
    MC_CHECK_GE(next, 0);
    current = next;
  }
  return tree;
}

}  // namespace mc
