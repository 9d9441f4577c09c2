#include "table/table.h"

#include <cstdlib>
#include <utility>

#include "text/normalize.h"

namespace mc {
namespace {

// Cells are tokenized into uint32-length spans (tokenized_table.h); at one
// token per byte, capping cells below 2^31 bytes keeps every span length
// representable with room for the repeat-bit encoding.
constexpr size_t kDefaultMaxCellBytes = size_t{1} << 31;
size_t g_max_cell_bytes = kDefaultMaxCellBytes;

}  // namespace

size_t Table::MaxCellBytes() { return g_max_cell_bytes; }

void Table::SetMaxCellBytesForTest(size_t bytes) {
  g_max_cell_bytes = bytes == 0 ? kDefaultMaxCellBytes : bytes;
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      cells_(other.cells_),
      num_rows_(other.num_rows_),
      text_plane_(other.text_plane_),
      text_plane_side_(other.text_plane_side_) {
  other.cells_shared_.store(true, std::memory_order_relaxed);
  cells_shared_.store(true, std::memory_order_relaxed);
}

Table& Table::operator=(const Table& other) {
  if (this != &other) *this = Table(other);
  return *this;
}

Table::Table(Table&& other) noexcept
    : schema_(std::exchange(other.schema_, Schema())),
      cells_(std::move(other.cells_)),
      cells_shared_(other.cells_shared_.load(std::memory_order_relaxed)),
      num_rows_(std::exchange(other.num_rows_, 0)),
      text_plane_(std::move(other.text_plane_)),
      text_plane_side_(std::exchange(other.text_plane_side_, 0)) {}

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) {
    schema_ = std::exchange(other.schema_, Schema());
    cells_ = std::move(other.cells_);
    cells_shared_.store(other.cells_shared_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    num_rows_ = std::exchange(other.num_rows_, 0);
    text_plane_ = std::move(other.text_plane_);
    text_plane_side_ = std::exchange(other.text_plane_side_, 0);
  }
  return *this;
}

Table::Cells& Table::MutableCells() {
  if (cells_ == nullptr) {
    cells_ = std::make_shared<Cells>(schema_.size());
  } else if (cells_shared_.load(std::memory_order_relaxed)) {
    cells_ = std::make_shared<Cells>(*cells_);
  }
  cells_shared_.store(false, std::memory_order_relaxed);
  return *cells_;
}

void Table::AddRow(std::vector<std::string> values) {
  Status status = TryAddRow(std::move(values));
  MC_CHECK(status.ok()) << status.ToString();
}

Status Table::TryAddRow(std::vector<std::string> values) {
  MC_RETURN_IF_ERROR(ValidateRow(values));
  Cells& cells = MutableCells();
  for (size_t i = 0; i < values.size(); ++i) {
    cells.missing[i].push_back(TrimWhitespace(values[i]).empty() ? 1 : 0);
    cells.columns[i].push_back(std::move(values[i]));
  }
  ++num_rows_;
  // Any attached text plane no longer matches the cell contents.
  text_plane_.reset();
  return Status::Ok();
}

Status Table::SetRow(size_t row, std::vector<std::string> values) {
  if (row >= num_rows_) {
    return Status::InvalidArgument("SetRow: row " + std::to_string(row) +
                                   " out of range (" +
                                   std::to_string(num_rows_) + " rows)");
  }
  MC_RETURN_IF_ERROR(ValidateRow(values));
  Cells& cells = MutableCells();
  for (size_t i = 0; i < values.size(); ++i) {
    cells.missing[i][row] = TrimWhitespace(values[i]).empty() ? 1 : 0;
    cells.columns[i][row] = std::move(values[i]);
  }
  text_plane_.reset();
  return Status::Ok();
}

Status Table::ValidateRow(const std::vector<std::string>& values) const {
  if (values.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(values.size()) + " cells, schema has " +
        std::to_string(schema_.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].size() > MaxCellBytes()) {
      return Status::InvalidArgument(
          "cell for attribute '" + schema_.attribute(i).name + "' is " +
          std::to_string(values[i].size()) + " bytes, limit " +
          std::to_string(MaxCellBytes()) +
          " (token spans are uint32-length)");
    }
  }
  return Status::Ok();
}

std::optional<double> Table::NumericValue(size_t row, size_t column) const {
  if (IsMissing(row, column)) return std::nullopt;
  return ParseDouble(Value(row, column));
}

void Table::SetSchema(Schema schema) {
  MC_CHECK_EQ(schema.size(), schema_.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    MC_CHECK(schema.attribute(i).name == schema_.attribute(i).name)
        << "SetSchema must not rename attributes";
  }
  schema_ = std::move(schema);
}

std::optional<double> ParseDouble(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return std::nullopt;
  // Strip a leading currency symbol, a common artifact in product data.
  if (trimmed.front() == '$') trimmed.remove_prefix(1);
  std::string buffer(trimmed);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return value;
}

}  // namespace mc
