#ifndef MATCHCATCHER_CONFIG_CONFIG_GENERATOR_H_
#define MATCHCATCHER_CONFIG_CONFIG_GENERATOR_H_

#include <cstddef>
#include <vector>

#include "config/config.h"
#include "table/profile.h"
#include "table/table.h"
#include "util/run_context.h"
#include "util/status.h"

namespace mc {

/// Tuning knobs for the Config Generator (paper §3).
struct ConfigGeneratorOptions {
  /// Minimum Jaccard similarity between the value sets of a categorical or
  /// boolean attribute in A and B; below this the attribute is dropped
  /// ("if Gender has values {Male, Female} in A but {M, F, U} in B ...").
  double categorical_value_jaccard_threshold = 0.5;
  /// δ of Condition 1 / Theorem 3.5.
  double delta = 0.2;
  /// Whether FindLongAttr runs at all (ablation: §6.5 "long attributes").
  bool handle_long_attributes = true;
  /// Safety cap on |T|; when exceeded the highest-e-score attributes win.
  size_t max_attributes = 16;
  /// Cooperative cancellation/deadline. Unlike the joint executor, config
  /// generation has no useful partial result, so cancellation mid-selection
  /// returns Status::DeadlineExceeded instead of a truncated value.
  RunContext run_context;
};

/// One node of the config tree.
struct ConfigNode {
  ConfigMask mask = 0;
  /// Index of the parent node, or -1 for the root.
  int parent = -1;
  /// Indices of child nodes (non-empty only along the expansion path).
  std::vector<int> children;
  size_t depth = 0;
};

/// The config tree of §3.2: the root holds all promising attributes; each
/// level removes one attribute; exactly one node per level is expanded
/// further. Nodes are stored in generation (BFS) order — the order the joint
/// executor processes them in.
struct ConfigTree {
  std::vector<ConfigNode> nodes;

  size_t size() const { return nodes.size(); }
};

/// Selects the promising attributes T (§3.2): drops numeric attributes,
/// drops categorical/boolean attributes whose value sets differ across the
/// tables, keeps the rest; computes e-scores and average lengths. Attribute
/// types are taken from the schema of `table_a` (run InferAttributeTypes
/// first if the source had no types). Fails if no attribute survives.
///
/// `profiles_a` (optional) holds ProfileTable(table_a), e.g. from
/// InferAttributeTypes(table_a, &profiles), so table A is not profiled a
/// second time; the result is the same either way.
Result<PromisingAttributes> SelectPromisingAttributes(
    const Table& table_a, const Table& table_b,
    const ConfigGeneratorOptions& options = {},
    const std::vector<AttributeProfile>* profiles_a = nullptr);

/// Generates the config tree over the promising attributes, applying the
/// e-score expansion choice and (optionally) FindLongAttr.
ConfigTree GenerateConfigTree(const PromisingAttributes& attributes,
                              const ConfigGeneratorOptions& options = {});

/// Exposed for testing: returns the attribute of `expansion_candidate`
/// judged "too long" per the Theorem 3.5 average-length approximation, or
/// -1 when none. `expansion_candidate` is the default (e-score-chosen) node
/// to expand.
int FindLongAttr(ConfigMask expansion_candidate,
                 const PromisingAttributes& attributes, double delta);

}  // namespace mc

#endif  // MATCHCATCHER_CONFIG_CONFIG_GENERATOR_H_
