#include "table/tokenized_table.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "simd/kernels.h"
#include "text/normalize.h"
#include "text/tokenize.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace mc {

namespace {

// Product of tokenizing one block of rows with thread-local dictionaries.
// Local ids are assigned in first-occurrence order within the block; the
// sequential block-order merge then reproduces the global stream-order ids
// a single-threaded build would have assigned (a token's first global
// occurrence lies in the earliest block containing it) — the same recipe
// that makes SsjCorpus::Build bit-identical for every thread count.
struct PlaneBlock {
  size_t begin_row = 0;
  size_t num_rows = 0;
  StringIndex tokens;               // Token string <-> local word id.
  std::vector<uint32_t> local_df;   // Cells containing the token (distinct).
  // Cells concatenated row-major: local ids in appearance order, within-cell
  // repeats flagged with kTextRepeatBit.
  std::vector<uint32_t> stream;
  std::vector<uint32_t> cell_stream_sizes;
  std::vector<uint32_t> cell_distinct_sizes;
  std::vector<TokenId> id_map;  // Local -> global (set by the merge).
  // Cancelled or fault-injected: cells stay empty, plane marked truncated.
  bool dropped = false;
};

void TokenizePlaneBlock(const Table& table, size_t num_columns,
                        PlaneBlock& block) {
  // Per local id, the last cell that counted the token: a later occurrence
  // in the same cell is a repeat.
  std::vector<size_t> last_cell;
  size_t cell = 0;
  std::string norm;  // Reused across cells; only its tokens are kept.
  block.cell_stream_sizes.reserve(block.num_rows * num_columns);
  block.cell_distinct_sizes.reserve(block.num_rows * num_columns);
  for (size_t row = block.begin_row; row < block.begin_row + block.num_rows;
       ++row) {
    for (size_t column = 0; column < num_columns; ++column) {
      NormalizeForTokensInto(table.Value(row, column), norm);
      // Word tokens of the normalized value are byte-identical to
      // WordTokens(raw value) (see ForEachNormalizedWordToken).
      ++cell;
      const size_t stream_before = block.stream.size();
      uint32_t distinct = 0;
      ForEachNormalizedWordToken(norm, [&](std::string_view token) {
        auto [local, inserted] = block.tokens.Insert(token);
        if (inserted) {
          MC_CHECK_LT(local, kTextRepeatBit);
          block.local_df.push_back(0);
          last_cell.push_back(0);
        }
        if (last_cell[local] == cell) {
          block.stream.push_back(local | kTextRepeatBit);
          return;
        }
        last_cell[local] = cell;
        block.stream.push_back(local);
        ++distinct;
        ++block.local_df[local];
      });
      block.cell_stream_sizes.push_back(
          static_cast<uint32_t>(block.stream.size() - stream_before));
      block.cell_distinct_sizes.push_back(distinct);
    }
  }
}

}  // namespace

void TokenizedTable::BindVectorsToArena(mem::Arena* arena) {
  for (size_t side = 0; side < 2; ++side) {
    mem::BindToArena(stream_offsets_[side], arena);
    mem::BindToArena(stream_[side], arena);
    mem::BindToArena(sorted_offsets_[side], arena);
    mem::BindToArena(sorted_[side], arena);
    mem::BindToArena(missing_[side], arena);
  }
}

TokenizedTable::~TokenizedTable() {
  if (memory_budget_ != nullptr && qgram_charged_ > 0) {
    memory_budget_->Release(qgram_charged_);
  }
}

std::shared_ptr<const TokenizedTable> TokenizedTable::Build(
    const Table& table_a, const Table& table_b,
    const TextPlaneBuildOptions& options, TextPlaneBuildStats* stats) {
  MC_CHECK_EQ(table_a.num_columns(), table_b.num_columns());
  MC_CHECK_GE(options.block_rows, 1u);
  std::shared_ptr<TokenizedTable> plane_ptr(new TokenizedTable());
  TokenizedTable& plane = *plane_ptr;
  plane.num_columns_ = table_a.num_columns();
  plane.rows_[0] = table_a.num_rows();
  plane.rows_[1] = table_b.num_rows();

  // Carve both tables into fixed-size row blocks (A blocks then B blocks);
  // the decomposition depends only on block_rows, never on the thread
  // count, so every thread count produces the same plane.
  std::vector<PlaneBlock> blocks;
  auto plan_table = [&](const Table& table) {
    size_t planned = 0;
    for (size_t begin = 0; begin < table.num_rows();
         begin += options.block_rows) {
      PlaneBlock block;
      block.begin_row = begin;
      block.num_rows = std::min(options.block_rows, table.num_rows() - begin);
      blocks.push_back(std::move(block));
      ++planned;
    }
    return planned;
  };
  const size_t blocks_a = plan_table(table_a);
  plan_table(table_b);

  const size_t threads =
      std::min(blocks.empty() ? size_t{1} : blocks.size(),
               options.num_threads != 0
                   ? options.num_threads
                   : std::max<size_t>(1, std::thread::hardware_concurrency()));
  plane.build_stats_.blocks = blocks.size();

  // Phase 1 (parallel): tokenize blocks with thread-local dictionaries.
  // Cancellation and the text_plane/build_block fault point are checked
  // once per block; a dropped block leaves its cells empty and marks the
  // plane truncated (it is then never attached/served).
  auto tokenize_one = [&](PlaneBlock& block, const Table& table) {
    if (options.run_context.Cancelled()) {
      block.dropped = true;
      return;
    }
    const FaultKind kind = MC_FAULT_POINT("text_plane/build_block");
    if (kind == FaultKind::kThrow) {
      block.dropped = true;
      throw std::runtime_error("injected fault: text_plane/build_block");
    }
    if (kind != FaultKind::kNone) {
      block.dropped = true;
      return;
    }
    TokenizePlaneBlock(table, plane.num_columns_, block);
  };
  if (threads == 1) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      try {
        tokenize_one(blocks[i], i < blocks_a ? table_a : table_b);
      } catch (const std::exception&) {
        // Injected fault: the block is already marked dropped.
      }
    }
  } else {
    ThreadPool pool(threads, "mc-txtplane");
    for (size_t i = 0; i < blocks.size(); ++i) {
      pool.Submit([&, i] {
        tokenize_one(blocks[i], i < blocks_a ? table_a : table_b);
      });
    }
    // A throwing block (injected fault) is already marked dropped.
    pool.Wait();
  }

  // Phase 2 (sequential, block order): merge the thread-local dictionaries.
  // Interning block-by-block in local first-occurrence order assigns
  // exactly the ids a sequential pass over all cells would have assigned.
  for (PlaneBlock& block : blocks) {
    if (block.dropped) {
      plane.truncated_ = true;
      ++plane.build_stats_.dropped_blocks;
      continue;
    }
    block.id_map.resize(block.tokens.size());
    for (uint32_t local = 0; local < block.tokens.size(); ++local) {
      block.id_map[local] = plane.dictionary_.Intern(block.tokens.KeyOf(local));
    }
    for (size_t local = 0; local < block.tokens.size(); ++local) {
      plane.dictionary_.AddDocumentFrequency(block.id_map[local],
                                             block.local_df[local]);
    }
  }
  MC_CHECK_LE(plane.dictionary_.size(), size_t{kTextTokenIdMask});
  plane.dictionary_.FinalizeRanks();

  // All CSR storage (offset tables, missing bits, and the cell arenas
  // themselves) draws from one arena that charges the budget
  // exactly its reserved bytes. The metadata sizes follow from the
  // dimensions alone, so they are reserved before the fill; the cell
  // arenas are reserved once their exact size is known below.
  plane.memory_budget_ = options.memory_budget;
  plane.arena_ = std::make_unique<mem::Arena>(mem::ArenaOptions{
      .budget = options.memory_budget, .tag = "text_plane"});
  size_t meta_bytes = 0;
  for (size_t side = 0; side < 2; ++side) {
    const size_t cells = plane.rows_[side] * plane.num_columns_;
    meta_bytes += 2 * mem::Arena::AlignedSize((cells + 1) * sizeof(uint32_t)) +
                  mem::Arena::AlignedSize(cells);
  }
  const bool arena_ok = plane.arena_->Reserve(meta_bytes);
  if (arena_ok) {
    plane.BindVectorsToArena(plane.arena_.get());
  } else {
    // Budget refused even the offset tables: drop every block now, so the
    // fill below produces the all-empty truncated plane on plain heap
    // vectors, uncharged (charge == reservation == 0).
    for (PlaneBlock& block : blocks) {
      if (!block.dropped) {
        block.dropped = true;
        ++plane.build_stats_.dropped_blocks;
      }
    }
    plane.truncated_ = true;
  }

  // Phase 3 (sequential): per-cell offsets and missing bits for both sides.
  // Idempotent (clears its outputs first) so the refusal path below can
  // re-run it after dropping every block. Offsets past UINT32_MAX wrap
  // here; the refusal path then discards them.
  uint64_t arena_sizes[2][2] = {{0, 0}, {0, 0}};  // [side][stream, sorted].
  auto fill_side = [&](size_t first_block, size_t block_count, size_t side,
                       const Table& table) {
    const size_t cells = plane.rows_[side] * plane.num_columns_;
    auto& stream_offsets = plane.stream_offsets_[side];
    auto& sorted_offsets = plane.sorted_offsets_[side];
    stream_offsets.clear();
    sorted_offsets.clear();
    plane.missing_[side].clear();
    stream_offsets.reserve(cells + 1);
    sorted_offsets.reserve(cells + 1);
    stream_offsets.push_back(0);
    sorted_offsets.push_back(0);
    plane.missing_[side].reserve(cells);
    uint64_t stream_position = 0;
    uint64_t sorted_position = 0;
    for (size_t b = first_block; b < first_block + block_count; ++b) {
      const PlaneBlock& block = blocks[b];
      const size_t block_cells = block.num_rows * plane.num_columns_;
      for (size_t cell = 0; cell < block_cells; ++cell) {
        const size_t row = block.begin_row + cell / plane.num_columns_;
        const size_t column = cell % plane.num_columns_;
        plane.missing_[side].push_back(table.IsMissing(row, column) ? 1 : 0);
        if (!block.dropped) {
          stream_position += block.cell_stream_sizes[cell];
          sorted_position += block.cell_distinct_sizes[cell];
        }
        stream_offsets.push_back(static_cast<uint32_t>(stream_position));
        sorted_offsets.push_back(static_cast<uint32_t>(sorted_position));
      }
    }
    arena_sizes[side][0] = stream_position;
    arena_sizes[side][1] = sorted_position;
  };
  fill_side(0, blocks_a, 0, table_a);
  fill_side(blocks_a, blocks.size() - blocks_a, 1, table_b);

  // Memory admission: the cell arenas dominate the plane footprint.
  // Reserve them (charging the budget) before allocating; a refusal, or a
  // side too large for 32-bit offsets, drops every block — the offsets
  // recompute to an all-empty truncated plane, which is never attached, so
  // consumers fall back to the legacy string path. The refill reuses the
  // already-reserved metadata chunk (clear() keeps capacity), so no
  // allocation happens past a refusal.
  bool offsets_fit = true;
  size_t cell_bytes = 0;
  for (const uint64_t entries : {arena_sizes[0][0], arena_sizes[0][1],
                                 arena_sizes[1][0], arena_sizes[1][1]}) {
    offsets_fit = offsets_fit && TextPlaneOffsetsFit(entries);
    cell_bytes += mem::Arena::AlignedSize(entries * sizeof(uint32_t));
  }
  if (arena_ok && (!offsets_fit || !plane.arena_->Reserve(cell_bytes))) {
    for (PlaneBlock& block : blocks) {
      if (!block.dropped) {
        block.dropped = true;
        ++plane.build_stats_.dropped_blocks;
      }
    }
    plane.truncated_ = true;
    fill_side(0, blocks_a, 0, table_a);
    fill_side(blocks_a, blocks.size() - blocks_a, 1, table_b);
  }
  for (size_t side = 0; side < 2; ++side) {
    plane.stream_[side].resize(arena_sizes[side][0]);
    plane.sorted_[side].resize(arena_sizes[side][1]);
  }

  // Phase 4 (parallel): translate local ids to global, derive each cell's
  // sorted distinct ranks, and write both into their precomputed arena
  // slices (blocks write disjoint regions).
  auto flatten_one = [&](size_t block_index) {
    const PlaneBlock& block = blocks[block_index];
    if (block.dropped) return;
    const size_t side = block_index < blocks_a ? 0 : 1;
    auto& stream_arena = plane.stream_[side];
    auto& sorted_arena = plane.sorted_[side];
    const auto& stream_offsets = plane.stream_offsets_[side];
    const auto& sorted_offsets = plane.sorted_offsets_[side];
    const size_t first_cell = block.begin_row * plane.num_columns_;
    const size_t block_cells = block.num_rows * plane.num_columns_;
    std::vector<uint32_t> ranks;
    size_t read = 0;
    for (size_t cell = 0; cell < block_cells; ++cell) {
      const size_t n = block.cell_stream_sizes[cell];
      uint32_t write = stream_offsets[first_cell + cell];
      ranks.clear();
      for (size_t e = read; e < read + n; ++e) {
        const uint32_t entry = block.stream[e];
        const uint32_t global = block.id_map[entry & kTextTokenIdMask];
        if (entry & kTextRepeatBit) {
          stream_arena[write++] = global | kTextRepeatBit;
        } else {
          stream_arena[write++] = global;
          ranks.push_back(plane.dictionary_.RankOf(global));
        }
      }
      read += n;
      std::sort(ranks.begin(), ranks.end());
      uint32_t sorted_write = sorted_offsets[first_cell + cell];
      for (uint32_t rank : ranks) sorted_arena[sorted_write++] = rank;
    }
  };
  if (threads == 1) {
    for (size_t i = 0; i < blocks.size(); ++i) flatten_one(i);
  } else {
    ThreadPool pool(threads, "mc-txtplane");
    for (size_t i = 0; i < blocks.size(); ++i) {
      pool.Submit([&, i] { flatten_one(i); });
    }
    Status status = pool.Wait();
    MC_CHECK(status.ok()) << status.message();
  }

  if (stats != nullptr) *stats = plane.build_stats_;
  return plane_ptr;
}

std::shared_ptr<const TokenizedTable> TokenizedTable::ApplyDelta(
    const TokenizedTable& base, const Table& table_a, const Table& table_b,
    const RowsDelta& delta, const TextPlaneBuildOptions& options) {
  if (base.truncated()) return nullptr;
  if (delta.side > 1) return nullptr;
  const size_t side = delta.side;
  const size_t other = 1 - side;
  const Table& delta_table = side == 0 ? table_a : table_b;
  const Table& other_table = side == 0 ? table_b : table_a;
  const size_t new_rows = delta.base_rows + delta.appended;
  if (base.num_columns_ != table_a.num_columns() ||
      base.num_columns_ != table_b.num_columns() ||
      base.rows_[side] != delta.base_rows ||
      delta_table.num_rows() != new_rows ||
      other_table.num_rows() != base.rows_[other]) {
    return nullptr;
  }
  if (MC_FAULT_POINT("text_plane/apply_delta") != FaultKind::kNone) {
    return nullptr;
  }

  std::shared_ptr<TokenizedTable> out_ptr(new TokenizedTable());
  TokenizedTable& out = *out_ptr;
  const size_t cols = base.num_columns_;
  out.num_columns_ = cols;
  out.rows_[side] = new_rows;
  out.rows_[other] = base.rows_[other];
  out.dictionary_ = base.dictionary_;
  out.build_stats_ = base.build_stats_;

  // The patched plane gets its own arena, charged exactly what it
  // reserves; the base generation keeps its own charge until it dies. The
  // metadata sizes (offset tables and missing bits, both sides) are known up
  // front; a refused reserve rejects the delta, mirroring Build's admission.
  out.memory_budget_ = options.memory_budget;
  out.arena_ = std::make_unique<mem::Arena>(mem::ArenaOptions{
      .budget = options.memory_budget, .tag = "text_plane"});
  {
    const size_t delta_cells = new_rows * cols;
    const size_t other_cells = base.rows_[other] * cols;
    const size_t meta_bytes =
        2 * mem::Arena::AlignedSize((delta_cells + 1) * sizeof(uint32_t)) +
        mem::Arena::AlignedSize(delta_cells) +
        2 * mem::Arena::AlignedSize((other_cells + 1) * sizeof(uint32_t)) +
        mem::Arena::AlignedSize(other_cells);
    if (!out.arena_->Reserve(meta_bytes)) return nullptr;
    out.BindVectorsToArena(out.arena_.get());
  }

  // Retire the old content of every touched cell: one df decrement per
  // distinct token (the non-repeat stream entries).
  for (uint32_t row : delta.touched) {
    for (size_t column = 0; column < cols; ++column) {
      const CellSpan stream = base.TokenStream(side, row, column);
      for (uint32_t entry : stream) {
        if ((entry & kTextRepeatBit) == 0) {
          out.dictionary_.SubtractDocumentFrequency(entry, 1);
        }
      }
    }
  }

  // Re-tokenize only the touched + appended cells, interning directly into
  // the published dictionary (new tokens take ids past the base's; ranks
  // are re-derived below, so id order is irrelevant to content).
  struct NewCell {
    std::vector<uint32_t> stream;  // Global ids, repeats flagged.
    std::vector<TokenId> distinct;
  };
  std::unordered_map<size_t, NewCell> fresh;  // Keyed by new-layout cell.
  std::vector<size_t> last_cell;  // Per id: the last cell that counted it.
  size_t cell_count = 0;
  std::string norm;
  auto tokenize_cell = [&](size_t row, size_t column) {
    NewCell cell;
    NormalizeForTokensInto(delta_table.Value(row, column), norm);
    ++cell_count;
    ForEachNormalizedWordToken(norm, [&](std::string_view token) {
      const TokenId id = out.dictionary_.Intern(token);
      if (id >= last_cell.size()) last_cell.resize(id + size_t{1}, 0);
      if (last_cell[id] == cell_count) {
        cell.stream.push_back(id | kTextRepeatBit);
        return;
      }
      last_cell[id] = cell_count;
      cell.stream.push_back(id);
      cell.distinct.push_back(id);
      out.dictionary_.AddDocumentFrequency(id, 1);
    });
    fresh.emplace(row * cols + column, std::move(cell));
  };
  for (uint32_t row : delta.touched) {
    for (size_t column = 0; column < cols; ++column) tokenize_cell(row, column);
  }
  for (size_t row = delta.base_rows; row < new_rows; ++row) {
    for (size_t column = 0; column < cols; ++column) tokenize_cell(row, column);
  }
  MC_CHECK_LE(out.dictionary_.size(), size_t{kTextTokenIdMask});
  out.dictionary_.FinalizeRanks();
  out.dead_tokens_ = out.dictionary_.DeadTokenCount();

  // Old rank -> new rank, for rewriting the sorted arenas without touching
  // strings: every base id exists in the patched dictionary too (dead
  // tokens keep their ids).
  std::vector<uint32_t> rank_map(base.dictionary_.size());
  for (TokenId id = 0; id < rank_map.size(); ++id) {
    rank_map[base.dictionary_.RankOf(id)] = out.dictionary_.RankOf(id);
  }

  // Delta-side layout: per-cell sizes, then one pass of bulk copies.
  const size_t cells = new_rows * cols;
  auto& stream_offsets = out.stream_offsets_[side];
  auto& sorted_offsets = out.sorted_offsets_[side];
  stream_offsets.reserve(cells + 1);
  sorted_offsets.reserve(cells + 1);
  stream_offsets.push_back(0);
  sorted_offsets.push_back(0);
  out.missing_[side].reserve(cells);
  uint64_t stream_position = 0;
  uint64_t sorted_position = 0;
  for (size_t row = 0; row < new_rows; ++row) {
    const bool untouched = row < delta.base_rows && !delta.Touches(row);
    for (size_t column = 0; column < cols; ++column) {
      out.missing_[side].push_back(
          delta_table.IsMissing(row, column) ? 1 : 0);
      if (untouched) {
        const size_t cell = row * cols + column;
        stream_position += base.stream_offsets_[side][cell + 1] -
                           base.stream_offsets_[side][cell];
        sorted_position += base.sorted_offsets_[side][cell + 1] -
                           base.sorted_offsets_[side][cell];
      } else {
        const NewCell& cell = fresh.at(row * cols + column);
        stream_position += cell.stream.size();
        sorted_position += cell.distinct.size();
      }
      stream_offsets.push_back(static_cast<uint32_t>(stream_position));
      sorted_offsets.push_back(static_cast<uint32_t>(sorted_position));
    }
  }

  // Memory admission before the big allocations, mirroring Build. The
  // other side's arenas are copied, so reserve both sides. A delta side too
  // large for 32-bit offsets is refused like a refused charge.
  const size_t cell_bytes =
      mem::Arena::AlignedSize(stream_position * sizeof(uint32_t)) +
      mem::Arena::AlignedSize(sorted_position * sizeof(uint32_t)) +
      mem::Arena::AlignedSize(base.stream_[other].size() * sizeof(uint32_t)) +
      mem::Arena::AlignedSize(base.sorted_[other].size() * sizeof(uint32_t));
  if (!TextPlaneOffsetsFit(stream_position) ||
      !TextPlaneOffsetsFit(sorted_position) ||
      !out.arena_->Reserve(cell_bytes)) {
    return nullptr;
  }

  out.stream_[side].resize(stream_position);
  out.sorted_[side].resize(sorted_position);
  for (size_t row = 0; row < new_rows; ++row) {
    const bool untouched = row < delta.base_rows && !delta.Touches(row);
    if (untouched) {
      // Whole-row bulk copy: a row's cells are contiguous in the arena.
      const size_t first = row * cols;
      const uint32_t src = base.stream_offsets_[side][first];
      const uint32_t src_end = base.stream_offsets_[side][first + cols];
      std::copy(base.stream_[side].begin() + src,
                base.stream_[side].begin() + src_end,
                out.stream_[side].begin() + stream_offsets[first]);
    } else {
      for (size_t column = 0; column < cols; ++column) {
        const size_t cell = row * cols + column;
        const NewCell& content = fresh.at(cell);
        std::copy(content.stream.begin(), content.stream.end(),
                  out.stream_[side].begin() + stream_offsets[cell]);
      }
    }
  }

  // Other side: streams, offsets and missing bits copy verbatim.
  out.stream_offsets_[other] = base.stream_offsets_[other];
  out.stream_[other] = base.stream_[other];
  out.sorted_offsets_[other] = base.sorted_offsets_[other];
  out.missing_[other] = base.missing_[other];
  out.sorted_[other].resize(base.sorted_[other].size());

  // Both sides' sorted arenas are rewritten: df changes shift ranks
  // globally. Untouched cells go through rank_map (integer transform +
  // re-sort, no strings); fresh cells derive ranks from their distinct ids.
  std::vector<uint32_t> ranks;
  auto rewrite_sorted = [&](size_t s) {
    const auto& offsets = out.sorted_offsets_[s];
    for (size_t cell = 0; cell + 1 < offsets.size(); ++cell) {
      ranks.clear();
      auto fresh_it = s == side ? fresh.find(cell) : fresh.end();
      if (fresh_it != fresh.end()) {
        for (TokenId id : fresh_it->second.distinct) {
          ranks.push_back(out.dictionary_.RankOf(id));
        }
      } else {
        const uint32_t begin = base.sorted_offsets_[s][cell];
        const uint32_t end = base.sorted_offsets_[s][cell + 1];
        for (uint32_t e = begin; e < end; ++e) {
          ranks.push_back(rank_map[base.sorted_[s][e]]);
        }
      }
      std::sort(ranks.begin(), ranks.end());
      std::copy(ranks.begin(), ranks.end(),
                out.sorted_[s].begin() + offsets[cell]);
    }
  };
  rewrite_sorted(0);
  rewrite_sorted(1);

  // Tombstones: inherit, extend to the new row count, mark fresh deletes.
  out.tombstones_[other] = base.tombstones_[other];
  out.tombstones_[side] = base.tombstones_[side];
  if (!delta.deleted.empty() || !out.tombstones_[side].empty()) {
    out.tombstones_[side].resize(new_rows, 0);
    for (uint32_t row : delta.deleted) out.tombstones_[side][row] = 1;
  }
  return out_ptr;
}

uint32_t TokenizedTable::ContentCrc() const {
  uint32_t crc = 0;
  auto hash_u64 = [&crc](uint64_t value) {
    crc = Crc32(&value, sizeof(value), crc);
  };
  hash_u64(num_columns_);
  hash_u64(rows_[0]);
  hash_u64(rows_[1]);
  for (size_t side = 0; side < 2; ++side) {
    const size_t cells = rows_[side] * num_columns_;
    for (size_t cell = 0; cell < cells; ++cell) {
      crc = Crc32(&missing_[side][cell], 1, crc);
      // Streams hash as ranks (repeat bit preserved): token ids are
      // build-order artifacts that differ between a patch and a rebuild.
      const uint32_t begin = stream_offsets_[side][cell];
      const uint32_t end = stream_offsets_[side][cell + 1];
      hash_u64(end - begin);
      for (uint32_t e = begin; e < end; ++e) {
        const uint32_t entry = stream_[side][e];
        const uint32_t canonical =
            dictionary_.RankOf(entry & kTextTokenIdMask) |
            (entry & kTextRepeatBit);
        crc = Crc32(&canonical, sizeof(canonical), crc);
      }
      const uint32_t sorted_begin = sorted_offsets_[side][cell];
      const uint32_t sorted_end = sorted_offsets_[side][cell + 1];
      hash_u64(sorted_end - sorted_begin);
      if (sorted_end > sorted_begin) {
        crc = Crc32(sorted_[side].data() + sorted_begin,
                    (sorted_end - sorted_begin) * sizeof(uint32_t), crc);
      }
    }
  }
  return crc;
}

std::shared_ptr<const TokenizedTable> TokenizedTable::BuildAndAttach(
    Table& table_a, Table& table_b, const TextPlaneBuildOptions& options,
    TextPlaneBuildStats* stats) {
  std::shared_ptr<const TokenizedTable> plane =
      Build(table_a, table_b, options, stats);
  if (!plane->truncated()) {
    table_a.AttachTextPlane(plane, 0);
    table_b.AttachTextPlane(plane, 1);
  }
  return plane;
}

const TokenizedTable::QGramColumn* TokenizedTable::QGramsForColumn(
    const Table& table_a, const Table& table_b, size_t q,
    size_t column) const {
  if (q == 0 || column >= num_columns_ || truncated_) return nullptr;
  const uint64_t key = (static_cast<uint64_t>(q) << 32) | column;
  {
    std::shared_lock<std::shared_mutex> lock(qgram_mutex_);
    auto it = qgram_cache_.find(key);
    if (it != qgram_cache_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(qgram_mutex_);
  auto it = qgram_cache_.find(key);
  if (it != qgram_cache_.end()) return it->second.get();
  // A column that cannot be had (fault, refused charge) is cached as null,
  // so it is built and charged at most once per plane: per-pair predicates
  // ask for it on every pair.
  if (MC_FAULT_POINT("text_plane/qgram_build") != FaultKind::kNone) {
    qgram_cache_.emplace(key, nullptr);
    return nullptr;
  }

  const Table* tables[2] = {&table_a, &table_b};
  if (table_a.text_plane_side() == 1 && table_b.text_plane_side() == 0) {
    std::swap(tables[0], tables[1]);
  }
  auto built = std::make_unique<QGramColumn>();
  StringIndex gram_ids;
  std::vector<size_t> last_cell;  // Per gram id: the last cell holding it.
  size_t cell_count = 0;
  std::string scratch;
  std::vector<uint32_t> cell;
  for (size_t side = 0; side < 2; ++side) {
    MC_CHECK_EQ(tables[side]->num_rows(), rows_[side]);
    built->offsets[side].reserve(rows_[side] + 1);
    built->offsets[side].push_back(0);
    for (size_t row = 0; row < rows_[side]; ++row) {
      cell.clear();
      ++cell_count;
      ForEachQGram(tables[side]->Value(row, column), q, scratch,
                   [&](std::string_view gram) {
                     auto [id, inserted] = gram_ids.Insert(gram);
                     if (inserted) last_cell.push_back(0);
                     if (last_cell[id] == cell_count) return;
                     last_cell[id] = cell_count;
                     cell.push_back(id);
                   });
      std::sort(cell.begin(), cell.end());
      built->grams[side].insert(built->grams[side].end(), cell.begin(),
                                cell.end());
      built->offsets[side].push_back(built->grams[side].size());
    }
  }
  built->dictionary_size = gram_ids.size();
  // Charged like the plane's arenas; a refused charge drops the column and
  // the caller takes its string path, as for a truncated plane.
  const size_t bytes = built->MemoryBytes();
  if (memory_budget_ != nullptr) {
    if (!memory_budget_->TryCharge(bytes)) {
      qgram_cache_.emplace(key, nullptr);
      return nullptr;
    }
    qgram_charged_ += bytes;
  }
  const QGramColumn* result = built.get();
  qgram_cache_.emplace(key, std::move(built));
  return result;
}

const TokenizedTable* AttachedTextPlane(const Table& table) {
  const TokenizedTable* plane = table.text_plane();
  if (plane == nullptr || plane->truncated()) return nullptr;
  const size_t side = table.text_plane_side();
  if (side > 1 || plane->num_rows(side) != table.num_rows() ||
      plane->num_columns() != table.num_columns()) {
    return nullptr;
  }
  return plane;
}

const TokenizedTable* SharedTextPlane(const Table& table_a,
                                      const Table& table_b) {
  const TokenizedTable* plane = AttachedTextPlane(table_a);
  if (plane == nullptr || plane != AttachedTextPlane(table_b)) return nullptr;
  return plane;
}

size_t SortedSpanOverlap(CellSpan a, CellSpan b) {
  return simd::OverlapCount(a.data, a.length, b.data, b.length);
}

}  // namespace mc
