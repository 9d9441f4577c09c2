#include "blocking/blocker.h"

#include <utility>

namespace mc {

CandidateSet NaiveBlocker::Run(const Table& table_a,
                               const Table& table_b) const {
  CandidateSet result;
  for (size_t a = 0; a < table_a.num_rows(); ++a) {
    for (size_t b = 0; b < table_b.num_rows(); ++b) {
      if (predicate_->Evaluate(table_a, a, table_b, b)) {
        result.Add(static_cast<RowId>(a), static_cast<RowId>(b));
      }
    }
  }
  return result;
}

std::string NaiveBlocker::Description(const Schema& schema) const {
  return predicate_->Description(schema);
}

CandidateSet UnionBlocker::Run(const Table& table_a,
                               const Table& table_b) const {
  // The largest output so far absorbs each next one, so every pair of the
  // largest member is inserted once (by its own executor) rather than again.
  CandidateSet result;
  for (const auto& member : members_) {
    CandidateSet output = member->Run(table_a, table_b);
    if (output.size() > result.size()) std::swap(result, output);
    result.UnionWith(output);
  }
  return result;
}

std::optional<bool> UnionBlocker::KeepsPair(const Table& table_a,
                                            size_t row_a,
                                            const Table& table_b,
                                            size_t row_b) const {
  bool all_decided = true;
  for (const auto& member : members_) {
    std::optional<bool> keeps =
        member->KeepsPair(table_a, row_a, table_b, row_b);
    if (!keeps.has_value()) {
      all_decided = false;
    } else if (*keeps) {
      return true;
    }
  }
  if (all_decided) return false;
  return std::nullopt;
}

std::string UnionBlocker::Description(const Schema& schema) const {
  std::string out;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += " OR ";
    out += members_[i]->Description(schema);
  }
  return out;
}

}  // namespace mc
