#include "ssj/corpus.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "table/tokenized_table.h"
#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mc {

ViewArenaPool::ViewArenaPool()
    : arena_(std::make_unique<mem::Arena>(
          mem::ArenaOptions{.tag = "view_scratch"})) {}

mem::ArenaVector<uint32_t> ViewArenaPool::Acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (buffers_.empty()) {
    return mem::ArenaVector<uint32_t>(
        mem::ArenaAllocator<uint32_t>(arena_.get()));
  }
  mem::ArenaVector<uint32_t> buffer = std::move(buffers_.back());
  buffers_.pop_back();
  return buffer;
}

void ViewArenaPool::Release(mem::ArenaVector<uint32_t> buffer) {
  buffer.clear();  // Keeps capacity; the next Acquire reuses it.
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::move(buffer));
}

size_t ViewArenaPool::idle_buffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.size();
}

ConfigView::~ConfigView() { ReleaseScratch(); }

void ConfigView::ReleaseScratch() {
  if (pool_ != nullptr) {
    pool_->Release(std::move(scratch_));
    pool_ = nullptr;
  }
}

ConfigView::ConfigView(ConfigView&& other) noexcept
    : spans_a_(std::move(other.spans_a_)),
      spans_b_(std::move(other.spans_b_)),
      scratch_(std::move(other.scratch_)),
      pool_(other.pool_),
      rank_limit_(other.rank_limit_),
      average_tokens_(other.average_tokens_),
      zero_copy_rows_(other.zero_copy_rows_),
      materialized_rows_(other.materialized_rows_) {
  other.pool_ = nullptr;
}

ConfigView& ConfigView::operator=(ConfigView&& other) noexcept {
  if (this != &other) {
    ReleaseScratch();
    spans_a_ = std::move(other.spans_a_);
    spans_b_ = std::move(other.spans_b_);
    scratch_ = std::move(other.scratch_);
    pool_ = other.pool_;
    rank_limit_ = other.rank_limit_;
    average_tokens_ = other.average_tokens_;
    zero_copy_rows_ = other.zero_copy_rows_;
    materialized_rows_ = other.materialized_rows_;
    other.pool_ = nullptr;
  }
  return *this;
}

namespace {

// Product of tokenizing one block of rows with a thread-local dictionary.
// Local token ids are assigned in first-occurrence order within the block;
// the sequential block-order merge then reproduces the global stream-order
// ids a single-threaded build would have assigned (a token's first global
// occurrence lies in the earliest block containing it), which is what makes
// the built corpus bit-identical for every thread count.
struct TokenizedBlock {
  size_t begin_row = 0;
  size_t num_rows = 0;
  std::vector<std::string> tokens;  // Local id -> token string (string path).
  // Local id -> plane token id (text-plane path; tokens stays empty). The
  // merge resolves strings through the plane's dictionary instead.
  std::vector<uint32_t> plane_ids;
  std::vector<uint32_t> local_df;   // Document frequency within the block.
  // Per-row (local id, attribute mask) entries, rows concatenated in order;
  // row r of the block owns row_sizes[r] consecutive entries.
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  std::vector<uint32_t> row_sizes;
  std::vector<TokenId> id_map;  // Local id -> global id (set by the merge).
  // Cancelled or fault-injected: rows stay empty, corpus marked truncated.
  bool dropped = false;
};

void TokenizeBlock(const Table& table, const std::vector<size_t>& columns,
                   TokenizedBlock& block) {
  std::unordered_map<std::string, uint32_t> local_ids;
  std::unordered_map<uint32_t, uint32_t> tuple_masks;  // local id -> mask.
  block.row_sizes.reserve(block.num_rows);
  for (size_t row = block.begin_row; row < block.begin_row + block.num_rows;
       ++row) {
    tuple_masks.clear();
    for (size_t bit = 0; bit < columns.size(); ++bit) {
      if (table.IsMissing(row, columns[bit])) continue;
      for (const std::string& token :
           DistinctWordTokens(table.Value(row, columns[bit]))) {
        auto [it, inserted] = local_ids.emplace(
            token, static_cast<uint32_t>(block.tokens.size()));
        if (inserted) {
          block.tokens.push_back(token);
          block.local_df.push_back(0);
        }
        tuple_masks[it->second] |= uint32_t{1} << bit;
      }
    }
    for (const auto& [id, mask] : tuple_masks) {
      block.entries.emplace_back(id, mask);
      ++block.local_df[id];
    }
    block.row_sizes.push_back(static_cast<uint32_t>(tuple_masks.size()));
  }
}

// Text-plane variant of TokenizeBlock: reads each cell's distinct token
// stream (interned ids, first-appearance order — exactly the
// DistinctWordTokens sequence) instead of re-tokenizing strings. Local ids
// are assigned by plane-id first occurrence over the same traversal order
// as the string path assigns them by token-string first occurrence, so the
// block-order merge produces an identical global dictionary and corpus.
void TokenizeBlockFromPlane(const TokenizedTable& plane, size_t side,
                            const std::vector<size_t>& columns,
                            TokenizedBlock& block) {
  std::unordered_map<uint32_t, uint32_t> local_ids;  // plane id -> local id.
  std::unordered_map<uint32_t, uint32_t> tuple_masks;  // local id -> mask.
  block.row_sizes.reserve(block.num_rows);
  for (size_t row = block.begin_row; row < block.begin_row + block.num_rows;
       ++row) {
    tuple_masks.clear();
    for (size_t bit = 0; bit < columns.size(); ++bit) {
      if (plane.missing(side, row, columns[bit])) continue;
      for (uint32_t entry : plane.TokenStream(side, row, columns[bit])) {
        if (entry & kTextRepeatBit) continue;
        auto [it, inserted] = local_ids.emplace(
            entry, static_cast<uint32_t>(block.plane_ids.size()));
        if (inserted) {
          block.plane_ids.push_back(entry);
          block.local_df.push_back(0);
        }
        tuple_masks[it->second] |= uint32_t{1} << bit;
      }
    }
    for (const auto& [id, mask] : tuple_masks) {
      block.entries.emplace_back(id, mask);
      ++block.local_df[id];
    }
    block.row_sizes.push_back(static_cast<uint32_t>(tuple_masks.size()));
  }
}

// Rank-sorted rows of one block plus their distinct-mask summaries, ready
// for sequential concatenation into the corpus CSR arenas.
struct FlattenedBlock {
  std::vector<uint32_t> row_masks;
  std::vector<uint32_t> row_mask_counts;
  std::vector<uint32_t> row_mask_sizes;  // Distinct masks per row.
};

}  // namespace

SsjCorpus SsjCorpus::Build(const Table& table_a, const Table& table_b,
                           const std::vector<size_t>& columns) {
  return Build(table_a, table_b, columns, CorpusBuildOptions{});
}

SsjCorpus SsjCorpus::Build(const Table& table_a, const Table& table_b,
                           const std::vector<size_t>& columns,
                           const CorpusBuildOptions& options,
                           CorpusBuildStats* stats) {
  MC_CHECK_GT(columns.size(), 0u);
  MC_CHECK_LE(columns.size(), 32u);
  MC_CHECK_GE(options.block_rows, 1u);
  SsjCorpus corpus;
  corpus.num_attributes_ = columns.size();

  // Tokenize-once fast path: when both tables share an attached text plane,
  // phase 1 projects its per-cell spans instead of re-tokenizing strings.
  const TokenizedTable* plane =
      options.use_text_plane ? SharedTextPlane(table_a, table_b) : nullptr;
  const size_t plane_side_a = table_a.text_plane_side();
  const size_t plane_side_b = table_b.text_plane_side();

  // Carve both tables into fixed-size row blocks (A blocks then B blocks).
  // The decomposition depends only on block_rows, never on the thread
  // count, so every thread count produces the same blocks — and therefore
  // the same corpus.
  std::vector<TokenizedBlock> blocks;
  size_t blocks_a = 0;
  auto plan_table = [&](const Table& table) {
    size_t planned = 0;
    for (size_t begin = 0; begin < table.num_rows();
         begin += options.block_rows) {
      TokenizedBlock block;
      block.begin_row = begin;
      block.num_rows = std::min(options.block_rows, table.num_rows() - begin);
      blocks.push_back(std::move(block));
      ++planned;
    }
    return planned;
  };
  blocks_a = plan_table(table_a);
  plan_table(table_b);

  const size_t threads =
      std::min(blocks.empty() ? size_t{1} : blocks.size(),
               options.num_threads != 0
                   ? options.num_threads
                   : std::max<size_t>(1, std::thread::hardware_concurrency()));
  corpus.build_stats_.blocks = blocks.size();
  corpus.build_stats_.threads = threads;

  // Phase 1 (parallel): tokenize blocks with thread-local dictionaries.
  // Cancellation and the corpus/build_block fault point are checked once
  // per block; a dropped block leaves its rows empty and marks the corpus
  // truncated (best-so-far contract, docs/robustness.md).
  Stopwatch tokenize_watch;
  auto tokenize_one = [&](TokenizedBlock& block, bool is_a) {
    if (options.run_context.Cancelled()) {
      block.dropped = true;
      return;
    }
    const FaultKind kind = MC_FAULT_POINT("corpus/build_block");
    if (kind == FaultKind::kThrow) {
      block.dropped = true;
      throw std::runtime_error("injected fault: corpus/build_block");
    }
    if (kind != FaultKind::kNone) {
      block.dropped = true;
      return;
    }
    if (plane != nullptr) {
      TokenizeBlockFromPlane(*plane, is_a ? plane_side_a : plane_side_b,
                             columns, block);
    } else {
      TokenizeBlock(is_a ? table_a : table_b, columns, block);
    }
  };
  if (threads == 1) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      try {
        tokenize_one(blocks[i], i < blocks_a);
      } catch (const std::exception&) {
        // Injected fault: the block is already marked dropped.
      }
    }
  } else {
    ThreadPool pool(threads, "mc-corpus");
    for (size_t i = 0; i < blocks.size(); ++i) {
      pool.Submit([&, i] { tokenize_one(blocks[i], i < blocks_a); });
    }
    // A throwing block (injected fault) is already marked dropped; the
    // pool's captured Status carries no extra information.
    pool.Wait();
  }
  corpus.build_stats_.tokenize_seconds = tokenize_watch.ElapsedSeconds();

  // Phase 2 (sequential, block order): merge the thread-local dictionaries
  // into the global one. Interning block-by-block in local first-occurrence
  // order assigns exactly the ids a sequential pass over all rows would
  // have assigned; per-token document frequencies merge additively.
  Stopwatch merge_watch;
  for (TokenizedBlock& block : blocks) {
    if (block.dropped) {
      corpus.truncated_ = true;
      ++corpus.build_stats_.dropped_blocks;
      continue;
    }
    const size_t local_count =
        plane != nullptr ? block.plane_ids.size() : block.tokens.size();
    block.id_map.resize(local_count);
    for (size_t local = 0; local < local_count; ++local) {
      // Plane path: the token string is resolved from the plane's
      // dictionary (one interning per distinct block token, no
      // re-tokenization); same merge order, same global ids.
      block.id_map[local] = corpus.dictionary_.Intern(
          plane != nullptr
              ? plane->word_dictionary().TokenOf(block.plane_ids[local])
              : block.tokens[local]);
    }
    for (size_t local = 0; local < local_count; ++local) {
      corpus.dictionary_.AddDocumentFrequency(block.id_map[local],
                                              block.local_df[local]);
    }
  }
  corpus.dictionary_.FinalizeRanks();
  corpus.build_stats_.merge_seconds = merge_watch.ElapsedSeconds();

  // Memory plane: one arena backs every CSR vector of the corpus, charged
  // against the budget exactly what it reserves. The offset tables' sizes
  // are known now (row counts); a refused metadata reservation drops every
  // block up front — the corpus degrades to an all-empty truncated one with
  // heap-bound (tiny, uncharged) vectors, charge == reservation == 0.
  const size_t meta_rows_a = table_a.num_rows();
  const size_t meta_rows_b = table_b.num_rows();
  corpus.arena_ = std::make_unique<mem::Arena>(mem::ArenaOptions{
      .budget = options.memory_budget, .tag = "corpus"});
  const size_t meta_bytes =
      mem::Arena::AlignedSize((meta_rows_a + 1) * sizeof(uint64_t)) +
      mem::Arena::AlignedSize((meta_rows_b + 1) * sizeof(uint64_t)) +
      mem::Arena::AlignedSize((meta_rows_a + meta_rows_b + 1) *
                              sizeof(uint64_t));
  const bool arena_ok = corpus.arena_->Reserve(meta_bytes);
  if (arena_ok) {
    corpus.BindVectorsToArena(corpus.arena_.get());
  } else {
    corpus.arena_ = nullptr;
    for (TokenizedBlock& block : blocks) {
      if (!block.dropped) {
        block.dropped = true;
        ++corpus.build_stats_.dropped_blocks;
      }
    }
    corpus.truncated_ = true;
  }

  // Phase 3 (sequential): row offsets for both CSR arenas.
  Stopwatch flatten_watch;
  auto fill_offsets = [&](size_t first_block, size_t block_count,
                          mem::ArenaVector<uint64_t>& offsets,
                          uint64_t base) {
    size_t rows = 0;
    for (size_t b = first_block; b < first_block + block_count; ++b) {
      rows += blocks[b].num_rows;
    }
    offsets.clear();
    offsets.reserve(rows + 1);
    uint64_t position = base;
    offsets.push_back(position);
    for (size_t b = first_block; b < first_block + block_count; ++b) {
      const TokenizedBlock& block = blocks[b];
      for (size_t r = 0; r < block.num_rows; ++r) {
        position += block.dropped ? 0 : block.row_sizes[r];
        offsets.push_back(position);
      }
    }
    return position;
  };
  const size_t blocks_b = blocks.size() - blocks_a;
  uint64_t after_a = fill_offsets(0, blocks_a, corpus.offsets_a_, 0);
  uint64_t total = fill_offsets(blocks_a, blocks_b, corpus.offsets_b_,
                                after_a);

  // Memory admission: the rank/mask arenas dominate the corpus footprint.
  // Reserve them before allocating; a refusal drops every block — the
  // offsets recompute to an all-empty (truncated) corpus — instead of
  // blowing through the service's ceiling. Joins over it still terminate
  // with best-so-far (empty) lists, same contract as cancellation.
  const size_t cell_bytes =
      2 * mem::Arena::AlignedSize(static_cast<size_t>(total) *
                                  sizeof(uint32_t));
  if (arena_ok && total > 0 && !corpus.arena_->Reserve(cell_bytes)) {
    for (TokenizedBlock& block : blocks) {
      if (!block.dropped) {
        block.dropped = true;
        ++corpus.build_stats_.dropped_blocks;
      }
    }
    corpus.truncated_ = true;
    after_a = fill_offsets(0, blocks_a, corpus.offsets_a_, 0);
    total = fill_offsets(blocks_a, blocks_b, corpus.offsets_b_, after_a);
  }
  corpus.ranks_.resize(total);
  corpus.masks_.resize(total);

  // Phase 4 (parallel): convert local ids to global ranks, sort each row,
  // and write it into its precomputed arena slice; derive each row's
  // distinct-mask summary (in rank order — deterministic) on the way.
  std::vector<FlattenedBlock> flattened(blocks.size());
  auto flatten_one = [&](size_t block_index) {
    TokenizedBlock& block = blocks[block_index];
    if (block.dropped) return;
    FlattenedBlock& out = flattened[block_index];
    out.row_mask_sizes.reserve(block.num_rows);
    const bool is_a = block_index < blocks_a;
    const mem::ArenaVector<uint64_t>& offsets =
        is_a ? corpus.offsets_a_ : corpus.offsets_b_;
    std::vector<std::pair<uint32_t, uint32_t>> row_buf;
    size_t entry_pos = 0;
    for (size_t r = 0; r < block.num_rows; ++r) {
      const size_t n = block.row_sizes[r];
      row_buf.clear();
      row_buf.reserve(n);
      for (size_t e = entry_pos; e < entry_pos + n; ++e) {
        const auto& [local_id, mask] = block.entries[e];
        row_buf.emplace_back(
            corpus.dictionary_.RankOf(block.id_map[local_id]), mask);
      }
      entry_pos += n;
      std::sort(row_buf.begin(), row_buf.end());
      uint64_t write = offsets[block.begin_row + r];
      const size_t masks_before = out.row_masks.size();
      for (const auto& [rank, mask] : row_buf) {
        corpus.ranks_[write] = rank;
        corpus.masks_[write] = mask;
        ++write;
        // Distinct-mask summary: rows carry a handful of distinct masks,
        // so a linear scan beats any map.
        bool found = false;
        for (size_t m = masks_before; m < out.row_masks.size(); ++m) {
          if (out.row_masks[m] == mask) {
            ++out.row_mask_counts[m];
            found = true;
            break;
          }
        }
        if (!found) {
          out.row_masks.push_back(mask);
          out.row_mask_counts.push_back(1);
        }
      }
      out.row_mask_sizes.push_back(
          static_cast<uint32_t>(out.row_masks.size() - masks_before));
    }
  };
  if (threads == 1) {
    for (size_t i = 0; i < blocks.size(); ++i) flatten_one(i);
  } else {
    ThreadPool pool(threads, "mc-corpus");
    for (size_t i = 0; i < blocks.size(); ++i) {
      pool.Submit([&, i] { flatten_one(i); });
    }
    Status status = pool.Wait();
    MC_CHECK(status.ok()) << status.message();
  }

  // The distinct-mask summaries are sized only now (their totals come out
  // of the flatten). Reserve them before concatenating; a refusal at this
  // late stage still degrades to the all-empty truncated corpus — the
  // already-filled cells are abandoned in place (their chunk stays charged;
  // charge == reservation holds) but no offset references them.
  uint64_t planned_mask_total = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].dropped) continue;
    for (uint32_t sizes : flattened[b].row_mask_sizes) {
      planned_mask_total += sizes;
    }
  }
  const size_t mask_bytes =
      2 * mem::Arena::AlignedSize(static_cast<size_t>(planned_mask_total) *
                                  sizeof(uint32_t));
  if (arena_ok && planned_mask_total > 0 &&
      !corpus.arena_->Reserve(mask_bytes)) {
    for (TokenizedBlock& block : blocks) {
      if (!block.dropped) {
        block.dropped = true;
        ++corpus.build_stats_.dropped_blocks;
      }
    }
    corpus.truncated_ = true;
    after_a = fill_offsets(0, blocks_a, corpus.offsets_a_, 0);
    total = fill_offsets(blocks_a, blocks_b, corpus.offsets_b_, after_a);
    corpus.ranks_.resize(total);
    corpus.masks_.resize(total);
  }

  // Sequential concatenation of the per-block distinct-mask summaries into
  // the corpus CSR (cheap: a fraction of the token arena size).
  const size_t total_rows = corpus.rows_a() + corpus.rows_b();
  corpus.mask_offsets_.reserve(total_rows + 1);
  corpus.mask_offsets_.push_back(0);
  uint64_t mask_total = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const TokenizedBlock& block = blocks[b];
    const FlattenedBlock& out = flattened[b];
    for (size_t r = 0; r < block.num_rows; ++r) {
      mask_total += block.dropped ? 0 : out.row_mask_sizes[r];
      corpus.mask_offsets_.push_back(mask_total);
    }
  }
  corpus.row_masks_.reserve(mask_total);
  corpus.row_mask_counts_.reserve(mask_total);
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].dropped) continue;
    const FlattenedBlock& out = flattened[b];
    corpus.row_masks_.insert(corpus.row_masks_.end(), out.row_masks.begin(),
                             out.row_masks.end());
    corpus.row_mask_counts_.insert(corpus.row_mask_counts_.end(),
                                   out.row_mask_counts.begin(),
                                   out.row_mask_counts.end());
  }
  corpus.build_stats_.flatten_seconds = flatten_watch.ElapsedSeconds();

  if (stats != nullptr) *stats = corpus.build_stats_;
  return corpus;
}

std::optional<SsjCorpus> SsjCorpus::ApplyDelta(
    const SsjCorpus& base, const Table& table_a, const Table& table_b,
    const std::vector<size_t>& columns, const RowsDelta& delta,
    const CorpusBuildOptions& options) {
  if (base.truncated() || delta.side > 1 ||
      columns.size() != base.num_attributes_) {
    return std::nullopt;
  }
  const size_t side = delta.side;
  const Table& delta_table = side == 0 ? table_a : table_b;
  const Table& other_table = side == 0 ? table_b : table_a;
  const size_t base_side_rows = side == 0 ? base.rows_a() : base.rows_b();
  const size_t base_other_rows = side == 0 ? base.rows_b() : base.rows_a();
  const size_t new_side_rows = delta.base_rows + delta.appended;
  if (base_side_rows != delta.base_rows ||
      delta_table.num_rows() != new_side_rows ||
      other_table.num_rows() != base_other_rows) {
    return std::nullopt;
  }
  if (MC_FAULT_POINT("corpus/apply_delta") != FaultKind::kNone) {
    return std::nullopt;
  }

  SsjCorpus out;
  out.num_attributes_ = base.num_attributes_;
  out.dictionary_ = base.dictionary_;
  out.build_stats_ = base.build_stats_;
  // The patch is a new content generation: per-generation caches (planner
  // statistics) on the patched corpus start empty and re-stamp themselves,
  // so a patched corpus never plans from the base's skew/length stats.
  out.generation_ = base.generation_ + 1;

  // Retire each touched row's old entries: corpus entries are distinct per
  // row, so one df decrement per entry. Entries are ranks; recover ids
  // through the inverse of the base ranking.
  std::vector<TokenId> id_of_rank(base.dictionary_.size());
  for (TokenId id = 0; id < id_of_rank.size(); ++id) {
    id_of_rank[base.dictionary_.RankOf(id)] = id;
  }
  auto base_tuple = [&](size_t row) {
    return side == 0 ? base.tuple_a(row) : base.tuple_b(row);
  };
  for (uint32_t row : delta.touched) {
    const TupleTokens tuple = base_tuple(row);
    for (size_t e = 0; e < tuple.size(); ++e) {
      out.dictionary_.SubtractDocumentFrequency(id_of_rank[tuple.ranks[e]], 1);
    }
  }

  // Re-tokenize only the touched + appended rows from the mutated table,
  // interning directly into the published dictionary (new tokens take ids
  // past the base's; ranks are re-derived below). Mirrors TokenizeBlock.
  std::unordered_map<size_t, std::vector<std::pair<TokenId, uint32_t>>> fresh;
  std::unordered_map<TokenId, uint32_t> tuple_masks;  // Global id -> mask.
  auto tokenize_row = [&](size_t row) {
    tuple_masks.clear();
    for (size_t bit = 0; bit < columns.size(); ++bit) {
      if (delta_table.IsMissing(row, columns[bit])) continue;
      for (const std::string& token :
           DistinctWordTokens(delta_table.Value(row, columns[bit]))) {
        tuple_masks[out.dictionary_.Intern(token)] |= uint32_t{1} << bit;
      }
    }
    std::vector<std::pair<TokenId, uint32_t>>& entries = fresh[row];
    entries.reserve(tuple_masks.size());
    for (const auto& [id, mask] : tuple_masks) {
      entries.emplace_back(id, mask);
      out.dictionary_.AddDocumentFrequency(id, 1);
    }
  };
  for (uint32_t row : delta.touched) tokenize_row(row);
  for (size_t row = delta.base_rows; row < new_side_rows; ++row) {
    tokenize_row(row);
  }
  out.dictionary_.FinalizeRanks();
  out.dead_tokens_ = out.dictionary_.DeadTokenCount();

  // Old rank -> new rank (every base id survives; dead tokens rank last).
  std::vector<uint32_t> rank_map(base.dictionary_.size());
  for (TokenId id = 0; id < rank_map.size(); ++id) {
    rank_map[base.dictionary_.RankOf(id)] = out.dictionary_.RankOf(id);
  }

  // Arena sizes: untouched rows keep their entry counts, patched rows take
  // their fresh counts. A rows precede B rows in the arena, so the
  // delta-side totals shift the other side's offsets when side == 0.
  const size_t out_rows_a = side == 0 ? new_side_rows : base.rows_a();
  const size_t out_rows_b = side == 0 ? base.rows_b() : new_side_rows;
  auto row_entries = [&](size_t out_side, size_t row) -> size_t {
    if (out_side == side) {
      if (row >= delta.base_rows || delta.Touches(static_cast<uint32_t>(row))) {
        return fresh.at(row).size();
      }
      return base_tuple(row).size();
    }
    return (out_side == 0 ? base.tuple_a(row) : base.tuple_b(row)).size();
  };

  // Memory plane, mirroring Build: one arena backs the patched corpus's
  // CSR vectors; a refused reservation rejects the delta (base untouched)
  // instead of overshooting the budget. Metadata first — the offset-table
  // sizes are already known.
  out.arena_ = std::make_unique<mem::Arena>(mem::ArenaOptions{
      .budget = options.memory_budget, .tag = "corpus"});
  const size_t meta_bytes =
      mem::Arena::AlignedSize((out_rows_a + 1) * sizeof(uint64_t)) +
      mem::Arena::AlignedSize((out_rows_b + 1) * sizeof(uint64_t)) +
      mem::Arena::AlignedSize((out_rows_a + out_rows_b + 1) *
                              sizeof(uint64_t));
  if (!out.arena_->Reserve(meta_bytes)) {
    return std::nullopt;
  }
  out.BindVectorsToArena(out.arena_.get());

  uint64_t total = 0;
  out.offsets_a_.reserve(out_rows_a + 1);
  out.offsets_a_.push_back(0);
  for (size_t row = 0; row < out_rows_a; ++row) {
    total += row_entries(0, row);
    out.offsets_a_.push_back(total);
  }
  out.offsets_b_.reserve(out_rows_b + 1);
  out.offsets_b_.push_back(total);
  for (size_t row = 0; row < out_rows_b; ++row) {
    total += row_entries(1, row);
    out.offsets_b_.push_back(total);
  }

  // Memory admission before the big allocations, mirroring Build.
  const size_t cell_bytes =
      2 * mem::Arena::AlignedSize(static_cast<size_t>(total) *
                                  sizeof(uint32_t));
  if (total > 0 && !out.arena_->Reserve(cell_bytes)) {
    return std::nullopt;
  }
  out.ranks_.resize(total);
  out.masks_.resize(total);

  // Fill both arenas and the distinct-mask row summaries in one sequential
  // pass (row order A then B — the order Build writes). Untouched rows go
  // through rank_map and re-sort: document-frequency changes can reorder
  // live tokens, so the old sort order does not survive the patch. The
  // summary derivation matches Build's flatten phase (distinct masks in
  // rank order of the sorted row).
  const size_t total_rows = out_rows_a + out_rows_b;
  out.mask_offsets_.reserve(total_rows + 1);
  out.mask_offsets_.push_back(0);
  // The summary totals are only known after the fill, and open-ended
  // push_back growth on a bump arena would strand every doubling copy —
  // accumulate in transient heap buffers, then copy into the arena with an
  // exact reservation below.
  std::vector<uint32_t> tmp_row_masks;
  std::vector<uint32_t> tmp_row_mask_counts;
  std::vector<std::pair<uint32_t, uint32_t>> row_buf;
  auto write_row = [&](size_t out_side, size_t row, uint64_t write) {
    row_buf.clear();
    if (out_side == side &&
        (row >= delta.base_rows ||
         delta.Touches(static_cast<uint32_t>(row)))) {
      for (const auto& [id, mask] : fresh.at(row)) {
        row_buf.emplace_back(out.dictionary_.RankOf(id), mask);
      }
    } else {
      const TupleTokens tuple =
          out_side == 0 ? base.tuple_a(row) : base.tuple_b(row);
      for (size_t e = 0; e < tuple.size(); ++e) {
        row_buf.emplace_back(rank_map[tuple.ranks[e]], tuple.masks[e]);
      }
    }
    std::sort(row_buf.begin(), row_buf.end());
    const size_t masks_before = tmp_row_masks.size();
    for (const auto& [rank, mask] : row_buf) {
      out.ranks_[write] = rank;
      out.masks_[write] = mask;
      ++write;
      bool found = false;
      for (size_t m = masks_before; m < tmp_row_masks.size(); ++m) {
        if (tmp_row_masks[m] == mask) {
          ++tmp_row_mask_counts[m];
          found = true;
          break;
        }
      }
      if (!found) {
        tmp_row_masks.push_back(mask);
        tmp_row_mask_counts.push_back(1);
      }
    }
    out.mask_offsets_.push_back(tmp_row_masks.size());
  };
  for (size_t row = 0; row < out_rows_a; ++row) {
    write_row(0, row, out.offsets_a_[row]);
  }
  for (size_t row = 0; row < out_rows_b; ++row) {
    write_row(1, row, out.offsets_b_[row]);
  }

  // Exact-size copy of the summaries into the arena. A refusal at this
  // point still rejects the whole delta — `out` (and its arena charges)
  // unwinds on return.
  const size_t mask_bytes =
      2 * mem::Arena::AlignedSize(tmp_row_masks.size() * sizeof(uint32_t));
  if (!tmp_row_masks.empty() && !out.arena_->Reserve(mask_bytes)) {
    return std::nullopt;
  }
  out.row_masks_.reserve(tmp_row_masks.size());
  out.row_masks_.assign(tmp_row_masks.begin(), tmp_row_masks.end());
  out.row_mask_counts_.reserve(tmp_row_mask_counts.size());
  out.row_mask_counts_.assign(tmp_row_mask_counts.begin(),
                              tmp_row_mask_counts.end());
  return out;
}

uint32_t SsjCorpus::ContentCrc() const {
  uint32_t crc = 0;
  auto hash_u64 = [&crc](uint64_t value) {
    crc = Crc32(&value, sizeof(value), crc);
  };
  hash_u64(num_attributes_);
  hash_u64(rows_a());
  hash_u64(rows_b());
  auto hash_side = [&](const mem::ArenaVector<uint64_t>& offsets) {
    for (size_t row = 0; row + 1 < offsets.size(); ++row) {
      const uint64_t begin = offsets[row];
      const uint64_t end = offsets[row + 1];
      hash_u64(end - begin);
      if (end > begin) {
        // Ranks are canonical (live ranks of a patched dictionary equal a
        // rebuild's); ids are not, and are deliberately excluded.
        crc = Crc32(ranks_.data() + begin, (end - begin) * sizeof(uint32_t),
                    crc);
        crc = Crc32(masks_.data() + begin, (end - begin) * sizeof(uint32_t),
                    crc);
      }
    }
  };
  hash_side(offsets_a_);
  hash_side(offsets_b_);
  return crc;
}

namespace {

// Smallest overlap whose similarity under `measure` reaches `threshold` for
// tuples of the given sizes (min + 1 when even full overlap falls short).
// Linear scan: the stats evaluate it four times per generation, so
// simplicity beats the analytic seed of the join engine's templated twin.
size_t RequiredOverlapForStats(SetMeasure measure, size_t size_a,
                               size_t size_b, double threshold) {
  const size_t max_overlap = std::min(size_a, size_b);
  for (size_t o = 0; o <= max_overlap; ++o) {
    if (SetSimilarityFromCounts(measure, size_a, size_b, o) >= threshold) {
      return o;
    }
  }
  return max_overlap + 1;
}

}  // namespace

const CorpusPlannerStats& SsjCorpus::PlannerStats() const {
  PlannerStatsCache& cache = *planner_stats_cache_;
  std::lock_guard<std::mutex> lock(cache.mutex);
  if (cache.valid && cache.stats.generation == generation_) {
    return cache.stats;
  }

  CorpusPlannerStats s;
  s.generation = generation_;
  s.dictionary_tokens = dictionary_.size();
  s.dead_tokens = dead_tokens_;

  const size_t na = rows_a();
  const size_t nb = rows_b();
  uint64_t total_a = 0;
  size_t q_counts[4] = {0, 0, 0, 0};
  for (size_t row = 0; row < na; ++row) {
    const size_t len = tuple_a(row).size();
    total_a += len;
    s.max_tokens_a = std::max(s.max_tokens_a, len);
    for (size_t q = 1; q <= 4; ++q) q_counts[q - 1] += (len >= q ? 1 : 0);
  }
  uint64_t total_b = 0;
  for (size_t row = 0; row < nb; ++row) {
    const size_t len = tuple_b(row).size();
    total_b += len;
    s.max_tokens_b = std::max(s.max_tokens_b, len);
  }
  s.mean_tokens_a =
      na == 0 ? 0.0 : static_cast<double>(total_a) / static_cast<double>(na);
  s.mean_tokens_b =
      nb == 0 ? 0.0 : static_cast<double>(total_b) / static_cast<double>(nb);
  for (size_t q = 1; q <= 4; ++q) {
    s.q_coverage_a[q - 1] =
        na == 0 ? 0.0
                : static_cast<double>(q_counts[q - 1]) / static_cast<double>(na);
  }

  // Frequency skew over the live dictionary: top-1% mass after sorting
  // document frequencies descending; tail mass counts df == 1 occurrences.
  std::vector<uint32_t> dfs;
  dfs.reserve(dictionary_.size());
  uint64_t occurrences = 0;
  uint64_t singleton_mass = 0;
  for (size_t id = 0; id < dictionary_.size(); ++id) {
    const uint32_t df = dictionary_.DocumentFrequency(static_cast<TokenId>(id));
    if (df == 0) continue;
    dfs.push_back(df);
    occurrences += df;
    if (df == 1) ++singleton_mass;
  }
  if (!dfs.empty() && occurrences > 0) {
    std::sort(dfs.begin(), dfs.end(), std::greater<uint32_t>());
    const size_t head = std::max<size_t>(1, dfs.size() / 100);
    uint64_t head_mass = 0;
    for (size_t i = 0; i < head; ++i) head_mass += dfs[i];
    s.head_mass =
        static_cast<double>(head_mass) / static_cast<double>(occurrences);
    s.tail_mass =
        static_cast<double>(singleton_mass) / static_cast<double>(occurrences);
  }

  const size_t mean_a = std::max<size_t>(
      1, static_cast<size_t>(std::llround(s.mean_tokens_a)));
  const size_t mean_b = std::max<size_t>(
      1, static_cast<size_t>(std::llround(s.mean_tokens_b)));
  const SetMeasure measures[4] = {
      SetMeasure::kJaccard, SetMeasure::kCosine, SetMeasure::kDice,
      SetMeasure::kOverlapCoefficient};
  const double shorter = static_cast<double>(std::min(mean_a, mean_b));
  for (size_t m = 0; m < 4; ++m) {
    s.required_overlap_frac[m] =
        static_cast<double>(
            RequiredOverlapForStats(measures[m], mean_a, mean_b, 0.8)) /
        shorter;
  }

  cache.stats = s;
  cache.valid = true;
  return cache.stats;
}

ConfigView SsjCorpus::MakeConfigView(ConfigMask config) const {
  ConfigView view;
  view.rank_limit_ = static_cast<uint32_t>(dictionary_.size());
  const size_t na = rows_a();
  const size_t nb = rows_b();
  view.spans_a_.resize(na);
  view.spans_b_.resize(nb);

  // Pass 1 — O(distinct masks) per row: classify each row as fully covered
  // (every distinct mask intersects the config: serve the whole row
  // zero-copy from the corpus arena) or filtered (count the surviving
  // tokens; materialize in pass 2). Note the per-mask test must be "each
  // mask intersects g", not "the AND of masks intersects g": masks {01,10}
  // are both covered by g=11 though their AND is 0.
  uint64_t selected_total = 0;
  uint64_t scratch_needed = 0;
  std::vector<std::pair<uint8_t, uint32_t>> filtered_rows;  // (side, row).
  auto classify_side = [&](uint8_t side, size_t rows,
                           const mem::ArenaVector<uint64_t>& offsets,
                           size_t global_base,
                           std::vector<TokenSpan>& spans) {
    for (size_t row = 0; row < rows; ++row) {
      const size_t g = global_base + row;
      bool covered = true;
      uint64_t selected = 0;
      for (uint64_t m = mask_offsets_[g]; m < mask_offsets_[g + 1]; ++m) {
        if (row_masks_[m] & config) {
          selected += row_mask_counts_[m];
        } else {
          covered = false;
        }
      }
      selected_total += selected;
      if (covered) {
        spans[row] = TokenSpan{ranks_.data() + offsets[row],
                               static_cast<uint32_t>(selected)};
        ++view.zero_copy_rows_;
      } else {
        spans[row].length = static_cast<uint32_t>(selected);
        scratch_needed += selected;
        filtered_rows.emplace_back(side, static_cast<uint32_t>(row));
        ++view.materialized_rows_;
      }
    }
  };
  classify_side(0, na, offsets_a_, 0, view.spans_a_);
  classify_side(1, nb, offsets_b_, na, view.spans_b_);

  // Pass 2 — materialize only the filtered rows, into a pooled scratch
  // buffer sized exactly up front (spans point into it; it must never
  // reallocate).
  if (!filtered_rows.empty()) {
    view.scratch_ = view_pool_->Acquire();
    view.pool_ = view_pool_.get();
    view.scratch_.resize(scratch_needed);
    uint64_t write = 0;
    for (const auto& [side, row] : filtered_rows) {
      const mem::ArenaVector<uint64_t>& offsets =
          side == 0 ? offsets_a_ : offsets_b_;
      TokenSpan& span = side == 0 ? view.spans_a_[row] : view.spans_b_[row];
      span.data = view.scratch_.data() + write;
      for (uint64_t i = offsets[row]; i < offsets[row + 1]; ++i) {
        if (masks_[i] & config) view.scratch_[write++] = ranks_[i];
      }
    }
    MC_CHECK_EQ(write, scratch_needed);
  }

  const size_t total_tuples = na + nb;
  view.average_tokens_ =
      total_tuples == 0 ? 0.0
                        : static_cast<double>(selected_total) /
                              static_cast<double>(total_tuples);
  return view;
}

size_t SsjCorpus::ConfigLength(const TupleTokens& tuple, ConfigMask config) {
  size_t length = 0;
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.masks[i] & config) ++length;
  }
  return length;
}

}  // namespace mc
