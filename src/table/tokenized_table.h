#ifndef MATCHCATCHER_TABLE_TOKENIZED_TABLE_H_
#define MATCHCATCHER_TABLE_TOKENIZED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mem/arena.h"
#include "mem/arena_vector.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "text/string_index.h"
#include "text/token_dictionary.h"
#include "util/memory_budget.h"
#include "util/run_context.h"

namespace mc {

/// High bit of a token-stream entry: set when the token already appeared
/// earlier in the same cell. Masking repeats out of the stream yields the
/// cell's DistinctWordTokens sequence (first-appearance order); keeping
/// them yields the full WordTokens sequence with duplicates.
inline constexpr uint32_t kTextRepeatBit = 0x80000000u;
inline constexpr uint32_t kTextTokenIdMask = 0x7fffffffu;

/// Non-owning view of one cell's slice of a CSR arena. Valid while the
/// owning TokenizedTable is alive.
struct CellSpan {
  const uint32_t* data = nullptr;
  uint32_t length = 0;

  size_t size() const { return length; }
  bool empty() const { return length == 0; }
  uint32_t operator[](size_t i) const { return data[i]; }
  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + length; }
};

/// True when `entries` stream or sorted-rank entries of one plane side can
/// be addressed by the plane's 32-bit cell offsets. A side that does not
/// fit is refused like a refused memory charge: Build returns a truncated
/// plane, ApplyDelta returns nullptr.
constexpr bool TextPlaneOffsetsFit(uint64_t entries) {
  return entries <= UINT32_MAX;
}

/// Options for TokenizedTable::Build.
struct TextPlaneBuildOptions {
  /// Worker threads for the block-parallel tokenize/flatten phases;
  /// 0 = hardware concurrency. The built plane is bit-identical for every
  /// thread count (per-block dictionaries merge in block order, the same
  /// determinism recipe as SsjCorpus::Build).
  size_t num_threads = 0;
  /// Rows per tokenize block; the decomposition depends only on this,
  /// never on the thread count.
  size_t block_rows = 1024;
  /// Cooperative cancellation/deadline. When it fires mid-build, remaining
  /// blocks are skipped and the plane is marked truncated(); a truncated
  /// plane is never served to consumers (SharedTextPlane returns nullptr)
  /// and DebugSession falls back to the legacy string path.
  RunContext run_context;
  /// Optional service-wide memory ceiling. The cell arenas (the plane's
  /// dominant footprint) are charged once their exact size is known, before
  /// allocation; a refused charge marks the plane truncated — it is then
  /// never attached, and consumers fall back to the legacy string path.
  /// The budget must outlive the plane.
  MemoryBudget* memory_budget = nullptr;
};

/// How TokenizedTable::Build split its input, and how much of it was lost.
struct TextPlaneBuildStats {
  size_t blocks = 0;
  size_t dropped_blocks = 0;  // Cancelled or fault-injected blocks.
};

/// The tokenize-once text plane of a table pair: every cell of tables A and
/// B, over *all* columns, normalized and word-tokenized exactly once into
/// CSR arenas at build time. Consumers read spans instead of re-tokenizing
/// strings; token strings live once, in the shared dictionary.
///
/// Per cell (addressed side/row/column, cells flattened row-major):
///  - token stream: the full WordTokens sequence as interned ids in
///    appearance order, within-cell repeats flagged with kTextRepeatBit;
///  - sorted ranks: the distinct tokens as global ranks, sorted ascending
///    (rank = position in the dictionary's (document frequency, token)
///    order, rarest first — a consistent total order for O(n+m) overlap
///    merges and prefix filtering);
///  - q-gram columns, built lazily per (q, column) on first use and cached
///    for the q-gram blockers and predicates, which need dense gram ids
///    over whole columns (the feature extractor codes the 3-grams of the
///    rows it scores itself; see learn/features.h).
/// Cell strings are not kept: a consumer that needs a cell's normalized
/// value computes NormalizeForTokens(table.Value(row, column)), which is
/// exactly the string the cell was tokenized from.
/// Missingness is not duplicated here: Table::IsMissing is already O(1).
///
/// Build parallelism follows SsjCorpus::Build: fixed row blocks tokenized
/// with thread-local dictionaries, then a sequential in-order merge that
/// reproduces the global stream-first-occurrence ids a single-threaded pass
/// would assign — the plane is bit-identical for every thread count.
///
/// Immutable after Build (the lazy q-gram cache is internally locked), so
/// one plane is safely shared by both tables and all threads.
class TokenizedTable {
 public:
  /// Lazily built per-(q, column) gram column: the q-gram ids of every
  /// cell in the column (both sides), sorted ascending per cell. Cells hold
  /// the distinct grams, as QGrams() returns them: a gram occurring twice
  /// in the value appears once. Gram ids are dense and local to this
  /// plane; only counts/overlaps are meaningful. Blocking-side only: a
  /// column lives as long as the plane, so consumers that score a few rows
  /// should code grams themselves (AppendQGramCodes).
  struct QGramColumn {
    std::vector<uint64_t> offsets[2];  // rows(side) + 1 entries.
    std::vector<uint32_t> grams[2];
    size_t dictionary_size = 0;

    /// Heap bytes of the offset and gram vectors (what the plane's
    /// memory budget is charged for this column).
    size_t MemoryBytes() const {
      size_t bytes = 0;
      for (size_t side = 0; side < 2; ++side) {
        bytes += offsets[side].capacity() * sizeof(uint64_t) +
                 grams[side].capacity() * sizeof(uint32_t);
      }
      return bytes;
    }

    CellSpan Row(size_t side, size_t row) const {
      return CellSpan{
          grams[side].data() + offsets[side][row],
          static_cast<uint32_t>(offsets[side][row + 1] -
                                offsets[side][row])};
    }
  };

  /// Returns the q-gram columns' charge to the memory budget.
  ~TokenizedTable();

  /// Tokenizes every cell of both tables. Never fails: cancellation and
  /// injected faults drop blocks and mark the plane truncated().
  static std::shared_ptr<const TokenizedTable> Build(
      const Table& table_a, const Table& table_b,
      const TextPlaneBuildOptions& options = {},
      TextPlaneBuildStats* stats = nullptr);

  /// Build() + attach to both tables (side 0 = `table_a`, 1 = `table_b`).
  /// A truncated plane is not attached. Returns the plane either way.
  static std::shared_ptr<const TokenizedTable> BuildAndAttach(
      Table& table_a, Table& table_b,
      const TextPlaneBuildOptions& options = {},
      TextPlaneBuildStats* stats = nullptr);

  /// Patches `base` with a row delta instead of rebuilding: only the
  /// touched and appended cells of the delta side are re-tokenized (new
  /// tokens are interned past the published dictionary; retired tokens keep
  /// their ids with df 0 and rank after every live token), untouched cell
  /// content is bulk-copied, and both sides' sorted-rank arenas are
  /// rewritten through an old-rank -> new-rank map (integer-only). Deleted
  /// rows are recorded in the tombstone bitmap; their cells are empty, as a
  /// rebuild of the mutated tables would see them.
  ///
  /// `table_a`/`table_b` must already hold the post-delta contents. The
  /// result is content-identical to Build() on the mutated tables
  /// (ContentCrc matches bit for bit); token ids may differ, so equality is
  /// defined over ranks, which is all consumers observe.
  ///
  /// Returns nullptr — base untouched, nothing attached — when the delta
  /// does not match the plane's dimensions, the memory budget refuses the
  /// patched arenas, a side's arena outgrows the 32-bit offsets
  /// (TextPlaneOffsetsFit), or the "text_plane/apply_delta" fault point
  /// fires.
  static std::shared_ptr<const TokenizedTable> ApplyDelta(
      const TokenizedTable& base, const Table& table_a, const Table& table_b,
      const RowsDelta& delta, const TextPlaneBuildOptions& options = {});

  size_t num_rows(size_t side) const { return rows_[side]; }
  size_t num_columns() const { return num_columns_; }

  /// O(1) missing bit, mirroring Table::IsMissing at build time.
  bool missing(size_t side, size_t row, size_t column) const {
    return missing_[side][Cell(side, row, column)] != 0;
  }

  /// Full WordTokens sequence of the cell: interned ids in appearance
  /// order; entries with kTextRepeatBit set are within-cell repeats.
  CellSpan TokenStream(size_t side, size_t row, size_t column) const {
    return Span(stream_[side], stream_offsets_[side],
                Cell(side, row, column));
  }

  /// Distinct tokens of the cell as global ranks, sorted ascending.
  CellSpan SortedRanks(size_t side, size_t row, size_t column) const {
    return Span(sorted_[side], sorted_offsets_[side],
                Cell(side, row, column));
  }

  /// Word-token count with duplicates (what profiling averages).
  uint32_t TokenCount(size_t side, size_t row, size_t column) const {
    const size_t cell = Cell(side, row, column);
    return static_cast<uint32_t>(stream_offsets_[side][cell + 1] -
                                 stream_offsets_[side][cell]);
  }

  /// Distinct word-token count (set semantics).
  uint32_t DistinctTokenCount(size_t side, size_t row, size_t column) const {
    const size_t cell = Cell(side, row, column);
    return static_cast<uint32_t>(sorted_offsets_[side][cell + 1] -
                                 sorted_offsets_[side][cell]);
  }

  /// First / last word token of the cell ("" when the cell has none).
  std::string_view FirstTokenOf(size_t side, size_t row,
                                size_t column) const {
    CellSpan stream = TokenStream(side, row, column);
    if (stream.empty()) return {};
    return dictionary_.TokenOf(stream[0] & kTextTokenIdMask);
  }
  std::string_view LastTokenOf(size_t side, size_t row,
                               size_t column) const {
    CellSpan stream = TokenStream(side, row, column);
    if (stream.empty()) return {};
    return dictionary_.TokenOf(stream[stream.size() - 1] & kTextTokenIdMask);
  }

  /// The shared word dictionary (ids comparable across both sides). Ranks
  /// are finalized: RankOf is valid for every id in the streams.
  const TokenDictionary& word_dictionary() const { return dictionary_; }

  /// The (q, column) gram column, built on first use and cached until the
  /// plane dies (lazy: q-gram consumers touch few columns). The grams are
  /// those of the raw cells of the pair the plane is shared by, each table
  /// on the side it is attached to (side 0 = `table_a` when neither is
  /// attached); QGrams(raw) and QGrams(normalized) are identical. Each built
  /// column is charged to the memory budget the plane was built or patched
  /// with, and released with the plane. Returns nullptr for q == 0,
  /// out-of-range columns or a truncated plane, and when the budget
  /// refuses the charge or the "text_plane/qgram_build" fault point fires;
  /// callers then take their string path. Such a refusal is cached too: a
  /// column is built and charged at most once per plane. Thread-safe.
  const QGramColumn* QGramsForColumn(const Table& table_a,
                                     const Table& table_b, size_t q,
                                     size_t column) const;

  /// True when the build was cut short: some cells have empty token lists
  /// and the plane must not be consulted (SharedTextPlane / attach both
  /// refuse truncated planes).
  bool truncated() const { return truncated_; }

  /// True when `row` was deleted by a delta (its cells are empty and its
  /// missing bits set; the row id stays valid). Always false on freshly
  /// built planes.
  bool row_tombstoned(size_t side, size_t row) const {
    return row < tombstones_[side].size() && tombstones_[side][row] != 0;
  }
  size_t tombstone_count(size_t side) const {
    size_t count = 0;
    for (uint8_t bit : tombstones_[side]) count += bit;
    return count;
  }

  /// Dictionary entries whose document frequency dropped to zero through
  /// deltas. They rank after all live tokens (so content equality with a
  /// rebuild holds) but still occupy id space and string storage — the
  /// service triggers compaction (a full rebuild) once
  /// dead_token_fraction() passes its threshold.
  size_t dead_tokens() const { return dead_tokens_; }
  double dead_token_fraction() const {
    return dictionary_.size() == 0
               ? 0.0
               : static_cast<double>(dead_tokens_) /
                     static_cast<double>(dictionary_.size());
  }

  /// Canonical content checksum: dims, missing bits, token streams and
  /// sorted arenas with every token expressed as its global *rank* (ids are
  /// build-order artifacts; ranks are what consumers observe). A patched
  /// plane and a from-scratch rebuild of the same mutated tables produce
  /// the same CRC — the delta-equivalence contract.
  uint32_t ContentCrc() const;

  const TextPlaneBuildStats& build_stats() const { return build_stats_; }

  /// Exact resident footprint of the plane's arena — the cell arenas,
  /// offset tables and missing bits all allocate through it, and the arena
  /// charges the memory budget exactly this many bytes (charge ==
  /// reservation, the mem/ subsystem contract). The sizing signal for the
  /// service's shared-plane LRU cache. Excludes the dictionary's token
  /// strings and lazy q-gram columns, which stay on the heap (the columns
  /// are charged to the budget on their own, see QGramsForColumn).
  size_t MemoryBytes() const {
    return arena_ != nullptr ? arena_->ReservedBytes() : 0;
  }

 private:
  TokenizedTable() = default;

  size_t Cell(size_t side, size_t row, size_t column) const {
    MC_CHECK_LT(row, rows_[side]);
    MC_CHECK_LT(column, num_columns_);
    return row * num_columns_ + column;
  }
  static CellSpan Span(const mem::ArenaVector<uint32_t>& arena,
                       const mem::ArenaVector<uint32_t>& offsets,
                       size_t cell) {
    return CellSpan{arena.data() + offsets[cell],
                    static_cast<uint32_t>(offsets[cell + 1] - offsets[cell])};
  }

  /// Points every CSR vector at `arena` (all must still be empty).
  void BindVectorsToArena(mem::Arena* arena);

  size_t num_columns_ = 0;
  size_t rows_[2] = {0, 0};
  // Backs every CSR vector below; charges the build's MemoryBudget exactly
  // its reserved bytes. Heap-allocated so the vectors' allocator pointers
  // stay stable if the plane object moves.
  std::unique_ptr<mem::Arena> arena_;
  mem::ArenaVector<uint32_t> stream_offsets_[2];  // rows*columns+1 entries.
  mem::ArenaVector<uint32_t> stream_[2];
  mem::ArenaVector<uint32_t> sorted_offsets_[2];
  mem::ArenaVector<uint32_t> sorted_[2];
  mem::ArenaVector<uint8_t> missing_[2];
  // Rows deleted by deltas (empty on freshly built planes; sized lazily).
  std::vector<uint8_t> tombstones_[2];
  TokenDictionary dictionary_;
  size_t dead_tokens_ = 0;
  bool truncated_ = false;
  TextPlaneBuildStats build_stats_;
  // The budget the plane was built or patched with (may be nullptr); the
  // lazy q-gram columns are charged to it.
  MemoryBudget* memory_budget_ = nullptr;
  // Lazy (q, column) gram columns, null for one that could not be had
  // (fault or refused charge); unique_ptr keeps returned pointers
  // stable across rehashes. Guarded for concurrent consumers, as is the
  // bytes they charged to memory_budget_.
  mutable std::shared_mutex qgram_mutex_;
  mutable std::unordered_map<uint64_t, std::unique_ptr<QGramColumn>>
      qgram_cache_;
  mutable size_t qgram_charged_ = 0;
};

/// The plane attached to `table`, or nullptr when there is none, it is
/// truncated, or its dimensions no longer cover the table. Single-table
/// consumers (profiling, key functions) gate their fast path on this.
const TokenizedTable* AttachedTextPlane(const Table& table);

/// The plane shared by both tables (same object attached to each, covering
/// both), or nullptr. Pair consumers (predicates, features, repair, corpus
/// build) gate their fast path on this; nullptr means the per-call string
/// path, the fallback for tables whose plane was truncated or never
/// attached. Both paths give bit-identical output
/// (tests/text_plane_equivalence_test.cc).
const TokenizedTable* SharedTextPlane(const Table& table_a,
                                      const Table& table_b);

/// Intersection size of two ascending-sorted spans (greedy merge count;
/// duplicates count with multiset semantics). Routed through the
/// SIMD-dispatched kernel plane (simd/kernels.h) — bit-identical at every
/// dispatch level.
size_t SortedSpanOverlap(CellSpan a, CellSpan b);

}  // namespace mc

#endif  // MATCHCATCHER_TABLE_TOKENIZED_TABLE_H_
