#ifndef MATCHCATCHER_TABLE_TABLE_DELTA_H_
#define MATCHCATCHER_TABLE_TABLE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace mc {

/// A batch of row-level edits against one side of a registered table pair —
/// the unit the incremental-update path (SessionManager::ApplyTableDelta)
/// ingests. Appends grow the table; mutations replace a row's cells in
/// place; deletes tombstone a row (its cells are cleared to missing — row
/// ids stay stable so PairIds in existing top-k lists remain valid).
struct TableDelta {
  struct RowEdit {
    uint32_t row = 0;
    std::vector<std::string> values;
  };

  /// Which table the delta targets: 0 = A, 1 = B.
  uint8_t side = 0;
  std::vector<std::vector<std::string>> appended;
  std::vector<RowEdit> mutated;
  std::vector<uint32_t> deleted;

  bool empty() const {
    return appended.empty() && mutated.empty() && deleted.empty();
  }
};

/// The delta reduced to the row sets the plane and corpus patchers
/// consume: which pre-existing rows changed content, which of those are
/// tombstones, and how many rows were appended.
struct RowsDelta {
  uint8_t side = 0;
  /// Mutated ∪ deleted rows, sorted ascending, all < base_rows.
  std::vector<uint32_t> touched;
  /// Deleted (tombstoned) rows, sorted ascending; a subset of `touched`.
  std::vector<uint32_t> deleted;
  size_t appended = 0;
  /// Row count of the side before the delta.
  size_t base_rows = 0;

  bool Touches(uint32_t row) const;
};

/// Validates `delta` against `table` (row indices in range, arity and cell
/// sizes per Table::TryAddRow, no row both mutated and deleted, no row
/// edited twice) and applies it: mutations and tombstones via SetRow,
/// appends via TryAddRow. On error the table may hold a prefix of the
/// appends but no mutation is half-applied per row; callers that need
/// all-or-nothing semantics stage on a copy (the service does).
Status ApplyDeltaToTable(Table& table, const TableDelta& delta);

/// Builds the patched-plane view of `delta` for a table that had
/// `base_rows` rows before the delta was applied. Fails (kInvalidArgument)
/// on out-of-range or duplicate touched rows.
Result<RowsDelta> MakeRowsDelta(const TableDelta& delta, size_t base_rows);

}  // namespace mc

#endif  // MATCHCATCHER_TABLE_TABLE_DELTA_H_
