#ifndef MATCHCATCHER_TABLE_TABLE_H_
#define MATCHCATCHER_TABLE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "table/schema.h"
#include "util/check.h"
#include "util/status.h"

namespace mc {

class TokenizedTable;

/// Column-oriented in-memory table. Cell values are stored as raw strings
/// (the form in which EM source data arrives); an empty string after
/// whitespace trimming is treated as a missing value (the missing bit is
/// precomputed at AddRow time, so IsMissing is O(1)). Numeric access parses
/// on demand.
///
/// Copies share their cells: copying a Table copies the schema and a
/// pointer, never a cell. The first AddRow/TryAddRow/SetRow through a
/// copy that shares its cells clones them (copy-on-write), so no copy ever
/// sees another's edits. The schema and the attached text plane stay per
/// object. Thread safety is that of a value: distinct Table objects —
/// copies of one another included — may be read and written concurrently
/// from different threads; one object may be read concurrently but not
/// written while anything else touches it (copying it included).
/// A moved-from table is empty (no schema, no rows) and may be reused.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)),
        cells_(std::make_shared<Cells>(schema_.size())) {}

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.size(); }

  /// Appends a row; `values` must have one entry per schema attribute.
  /// Fatally checks the TryAddRow preconditions — use TryAddRow for
  /// untrusted input.
  void AddRow(std::vector<std::string> values);

  /// Appends a row with typed validation: kInvalidArgument when the arity
  /// does not match the schema or a cell exceeds MaxCellBytes() (a cell
  /// that large would overflow the text plane's uint32 span lengths —
  /// tokenized_table.h TokenSpan/CellSpan).
  Status TryAddRow(std::vector<std::string> values);

  /// Replaces an existing row's cells in place (same validation as
  /// TryAddRow, plus `row < num_rows()`). Missing bits are recomputed;
  /// any attached text plane is detached.
  Status SetRow(size_t row, std::vector<std::string> values);

  /// Largest accepted cell, in bytes. One token per byte is the worst case,
  /// so this bound keeps every per-cell token count below the text plane's
  /// uint32 span-length limit.
  static size_t MaxCellBytes();
  /// Test hook: lowers the cell-size ceiling so the rejection path is
  /// reachable without allocating gigabytes. 0 restores the default.
  static void SetMaxCellBytesForTest(size_t bytes);

  /// Raw cell value ("" when missing).
  std::string_view Value(size_t row, size_t column) const {
    MC_CHECK_LT(row, num_rows_);
    MC_CHECK_LT(column, num_columns());
    return cells_->columns[column][row];
  }

  /// True when the cell is empty / whitespace-only. O(1): the bit is
  /// precomputed by AddRow (this is called in hot profiling loops).
  bool IsMissing(size_t row, size_t column) const {
    MC_CHECK_LT(row, num_rows_);
    MC_CHECK_LT(column, num_columns());
    return cells_->missing[column][row] != 0;
  }

  /// Cell parsed as double, if present and parseable.
  std::optional<double> NumericValue(size_t row, size_t column) const;

  /// Whole column (reference valid until the next write to this table).
  /// Copies return the same vector until one of them is written.
  const std::vector<std::string>& Column(size_t column) const {
    MC_CHECK_LT(column, num_columns());
    return cells_->columns[column];
  }

  /// Replaces the schema's attribute types (used after type inference).
  /// Names and arity must be unchanged. Does not detach the text plane
  /// (plane content depends only on cell values, never on types).
  void SetSchema(Schema schema);

  /// Attaches a tokenize-once text plane (table/tokenized_table.h); `side`
  /// is this table's side within the plane (0 = A, 1 = B). Consumers use
  /// the plane for span reads instead of re-tokenizing cell strings.
  /// AddRow detaches it again — a mutated table no longer matches the
  /// plane's cell contents.
  void AttachTextPlane(std::shared_ptr<const TokenizedTable> plane,
                       uint8_t side) {
    text_plane_ = std::move(plane);
    text_plane_side_ = side;
  }

  /// Drops the attached plane (forces the legacy string path).
  void DetachTextPlane() { text_plane_.reset(); }

  /// The attached plane, or nullptr. Prefer AttachedTextPlane() /
  /// SharedTextPlane() (tokenized_table.h), which also verify coverage.
  const TokenizedTable* text_plane() const { return text_plane_.get(); }
  std::shared_ptr<const TokenizedTable> text_plane_ref() const {
    return text_plane_;
  }
  uint8_t text_plane_side() const { return text_plane_side_; }

 private:
  // Cell storage, shared by copies until one of them writes.
  struct Cells {
    explicit Cells(size_t num_columns)
        : columns(num_columns), missing(num_columns) {}
    std::vector<std::vector<std::string>> columns;
    // Per-column missing bitmap, parallel to columns (1 = whitespace-only).
    std::vector<std::vector<uint8_t>> missing;
  };

  Status ValidateRow(const std::vector<std::string>& values) const;
  // The cells, cloned first when another table may share them.
  Cells& MutableCells();

  Schema schema_;
  // Null only in a default-constructed or moved-from table (no columns).
  std::shared_ptr<Cells> cells_;
  // Set on both sides of a copy, cleared by the clone MutableCells makes
  // (so a table whose copies all died still clones once). Not
  // cells_.use_count() == 1: that read is relaxed, so it would not order an
  // in-place write after another thread's reads through a copy it just
  // destroyed. Atomic because copying a const table from several threads
  // sets it.
  mutable std::atomic<bool> cells_shared_{false};
  size_t num_rows_ = 0;
  std::shared_ptr<const TokenizedTable> text_plane_;
  uint8_t text_plane_side_ = 0;
};

/// Parses `text` as a double; rejects trailing garbage.
std::optional<double> ParseDouble(std::string_view text);

}  // namespace mc

#endif  // MATCHCATCHER_TABLE_TABLE_H_
