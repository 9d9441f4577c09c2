#ifndef MATCHCATCHER_SSJ_CORPUS_H_
#define MATCHCATCHER_SSJ_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "config/config.h"
#include "mem/arena.h"
#include "mem/arena_vector.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "text/token_dictionary.h"
#include "util/memory_budget.h"
#include "util/run_context.h"

namespace mc {

/// Non-owning view of one tuple's sorted token ranks — a slice of a CSR
/// arena (see docs/algorithms.md §"CSR token arenas"). Cheap to copy; valid
/// as long as the owning SsjCorpus/ConfigView is alive.
struct TokenSpan {
  const uint32_t* data = nullptr;
  uint32_t length = 0;

  size_t size() const { return length; }
  bool empty() const { return length == 0; }
  uint32_t operator[](size_t i) const { return data[i]; }
  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + length; }
};

/// Token content of one tuple over the promising attributes: for each
/// distinct token, its global-order rank and the bitmask of promising
/// attributes in which it appears. From this, the token set of the tuple
/// under *any* config is derivable exactly — the key to reusing work across
/// configs (see DESIGN.md §5): a token belongs to config g iff mask ∧ g ≠ 0.
///
/// Non-owning view into the corpus's CSR arenas; `ranks[i]`/`masks[i]` are
/// parallel arrays of `length` entries, ranks sorted ascending (rarest token
/// first).
struct TupleTokens {
  const uint32_t* ranks = nullptr;
  const uint32_t* masks = nullptr;
  uint32_t length = 0;

  size_t size() const { return length; }
};

/// Pool of reusable scratch buffers backing the materialized rows of
/// ConfigViews. A view that needs scratch (some of its rows are not fully
/// covered by the config, see SsjCorpus::MakeConfigView) borrows one buffer
/// on construction and returns it — capacity intact — on destruction, so a
/// joint execution building one view per config reuses the same few
/// allocations instead of paying a fresh arena per config. Thread-safe.
///
/// Buffers draw their storage from a pool-owned scratch Arena (uncharged:
/// view scratch is transient working memory, not resident plane state), so
/// repeated view construction bump-allocates once per high-water mark
/// instead of round-tripping the heap.
class ViewArenaPool {
 public:
  ViewArenaPool();

  /// Returns a pooled buffer (empty but with its old capacity) or a fresh
  /// empty one bound to the pool's scratch arena.
  mem::ArenaVector<uint32_t> Acquire();

  /// Returns a buffer to the pool for reuse.
  void Release(mem::ArenaVector<uint32_t> buffer);

  /// Buffers currently parked in the pool (for tests).
  size_t idle_buffers() const;

  /// Scratch bytes reserved by the pool's arena (diagnostics).
  size_t ReservedBytes() const { return arena_->ReservedBytes(); }

 private:
  mutable std::mutex mutex_;
  // Address-stable behind unique_ptr: pooled buffers (and views holding
  // them) keep allocator pointers to it across pool moves.
  std::unique_ptr<mem::Arena> arena_;
  std::vector<mem::ArenaVector<uint32_t>> buffers_;
};

/// Per-config token view of both tables: for each tuple, the sorted rank
/// array of its tokens under the config. This is what the top-k joins
/// consume; string content never reappears past corpus construction.
///
/// Storage is a per-row span table. A row whose every token survives the
/// config's attribute filter ("fully covered") is served zero-copy: its
/// span points straight into the corpus's rank arena. Only rows the config
/// actually filters are materialized, into a scratch buffer borrowed from
/// the corpus's ViewArenaPool. Construction is O(rows) plus the tokens of
/// the filtered rows — not O(total tokens) — and the root config (full
/// mask) is always 100% zero-copy.
///
/// Move-only (the scratch buffer returns to the pool exactly once); spans
/// are valid while both this view and the corpus it came from are alive.
class ConfigView {
 public:
  ConfigView() = default;
  ~ConfigView();
  ConfigView(ConfigView&& other) noexcept;
  ConfigView& operator=(ConfigView&& other) noexcept;
  ConfigView(const ConfigView&) = delete;
  ConfigView& operator=(const ConfigView&) = delete;

  size_t rows_a() const { return spans_a_.size(); }
  size_t rows_b() const { return spans_b_.size(); }

  /// Token ranks of one row, sorted ascending.
  TokenSpan a(size_t row) const { return spans_a_[row]; }
  TokenSpan b(size_t row) const { return spans_b_[row]; }

  /// Exclusive upper bound on every token rank in the view (the dictionary
  /// size). Dense token-indexed structures (the join's inverted indexes)
  /// are sized by this.
  uint32_t rank_limit() const { return rank_limit_; }

  /// Average token count per tuple (both tables), used for the reuse
  /// trigger t = 20 of paper §4.2.
  double average_tokens() const { return average_tokens_; }

  /// Rows served straight from the corpus arena vs. copied into scratch
  /// (diagnostics for the zero-copy path).
  size_t zero_copy_rows() const { return zero_copy_rows_; }
  size_t materialized_rows() const { return materialized_rows_; }

 private:
  friend class SsjCorpus;

  void ReleaseScratch();

  std::vector<TokenSpan> spans_a_;
  std::vector<TokenSpan> spans_b_;
  // Materialized tokens of rows the config filters, drawn from the pool's
  // scratch arena. Spans of those rows point into this buffer; it must
  // never reallocate after construction (MakeConfigView sizes it exactly
  // up front).
  mem::ArenaVector<uint32_t> scratch_;
  ViewArenaPool* pool_ = nullptr;  // Where scratch_ returns on destruction.
  uint32_t rank_limit_ = 0;
  double average_tokens_ = 0.0;
  size_t zero_copy_rows_ = 0;
  size_t materialized_rows_ = 0;
};

/// Options for SsjCorpus::Build.
struct CorpusBuildOptions {
  /// Worker threads for the block-parallel tokenize/flatten phases;
  /// 0 = hardware concurrency. The built corpus is bit-identical for every
  /// thread count (per-block dictionaries merge in block order, which
  /// reproduces the sequential first-occurrence token ids exactly).
  size_t num_threads = 0;
  /// Rows per tokenize block. The block structure (not the thread count)
  /// determines the work decomposition, so it must stay fixed across runs
  /// being compared.
  size_t block_rows = 1024;
  /// Cooperative cancellation/deadline. When it fires mid-build, remaining
  /// blocks are skipped: their rows get empty token lists and the corpus is
  /// marked truncated() — joins over it return best-so-far results, and
  /// RunJointTopKJoins propagates the flag into JointResult::truncated.
  RunContext run_context;
  /// Optional service-wide memory ceiling. The CSR token arenas (the
  /// corpus's dominant footprint) are charged against it once their exact
  /// size is known, before allocation; a refused charge degrades the build
  /// to an empty truncated corpus instead of overshooting the ceiling. The
  /// budget must outlive the corpus (the charge releases on destruction).
  MemoryBudget* memory_budget = nullptr;
};

/// Cheap corpus-level statistics the join planner's cost model starts from
/// (src/ssj/join_planner.h): dictionary shape, per-side record-length
/// distribution, token-frequency skew, and required-overlap tightness.
/// Computed lazily, once per corpus *generation* (SsjCorpus::generation()),
/// and cached on the corpus — a patched corpus (ApplyDelta) carries a new
/// generation and therefore never serves stale skew/length stats.
struct CorpusPlannerStats {
  /// Generation of the corpus these stats describe (stale entries are
  /// recomputed, never served).
  uint64_t generation = 0;
  size_t dictionary_tokens = 0;  ///< Dictionary entries, live + dead.
  size_t dead_tokens = 0;        ///< Entries with document frequency 0.
  double mean_tokens_a = 0.0;    ///< Mean entries per table-A tuple.
  double mean_tokens_b = 0.0;
  size_t max_tokens_a = 0;  ///< Longest table-A tuple, in entries.
  size_t max_tokens_b = 0;
  /// Token-frequency skew: fraction of all document occurrences carried by
  /// the most frequent 1% of live tokens. Large values mean the postings of
  /// a few hot tokens dominate prefix-join probe cost.
  double head_mass = 0.0;
  /// Fraction of occurrences carried by tokens with document frequency 1 —
  /// tokens that can never produce a candidate pair on their own.
  double tail_mass = 0.0;
  /// Fraction of table-A tuples with at least q tokens, for q = 1..4
  /// (index q - 1). A q most rows cannot reach answers a much smaller
  /// query space; the planner caps its candidate q values by this.
  double q_coverage_a[4] = {0.0, 0.0, 0.0, 0.0};
  /// Required-overlap tightness per measure (SetMeasure order: Jaccard,
  /// cosine, Dice, overlap coefficient): the smallest overlap a pair of
  /// mean-length tuples needs to reach similarity 0.8, as a fraction of the
  /// shorter mean length. Near 1.0 the positional bound prunes aggressively.
  double required_overlap_frac[4] = {0.0, 0.0, 0.0, 0.0};
};

/// How SsjCorpus::Build split its input, and how much of it was lost.
struct CorpusBuildStats {
  size_t blocks = 0;
  size_t dropped_blocks = 0;  // Cancelled or fault-injected blocks.
};

/// Tokenized form of tables A and B over the promising attributes, with a
/// shared dictionary and global token order (ascending document frequency).
/// Tuple entries live in CSR arenas (parallel rank/mask buffers plus
/// per-side offsets).
class SsjCorpus {
 public:
  /// Tokenizes both tables. `columns` lists the table columns that form the
  /// promising attributes, in bit order (at most 32).
  static SsjCorpus Build(const Table& table_a, const Table& table_b,
                         const std::vector<size_t>& columns);

  /// As above with explicit build options (parallelism, cancellation).
  /// `stats`, if non-null, receives the stage timings.
  static SsjCorpus Build(const Table& table_a, const Table& table_b,
                         const std::vector<size_t>& columns,
                         const CorpusBuildOptions& options,
                         CorpusBuildStats* stats = nullptr);

  /// Patches `base` with a row delta instead of rebuilding: only the
  /// touched and appended rows of the delta side are re-tokenized (their
  /// old entries retire by document-frequency subtraction; new tokens are
  /// interned past the published dictionary and retired tokens keep their
  /// ids with df 0, ranking after every live token), and both sides' CSR
  /// rank/mask arenas are rewritten through an old-rank -> new-rank map —
  /// an integer transform, no string work for untouched rows.
  ///
  /// `table_a`/`table_b` must already hold the post-delta contents and
  /// `columns` must be the column set the base corpus was built with. The
  /// result is content-identical to Build() on the mutated tables
  /// (ContentCrc matches bit for bit: live token ranks of a patched
  /// dictionary equal the rebuild's ranks exactly).
  ///
  /// Returns nullopt — base untouched — when the delta does not match the
  /// corpus's dimensions, the memory budget refuses the patched arenas, or
  /// the "corpus/apply_delta" fault point fires.
  static std::optional<SsjCorpus> ApplyDelta(
      const SsjCorpus& base, const Table& table_a, const Table& table_b,
      const std::vector<size_t>& columns, const RowsDelta& delta,
      const CorpusBuildOptions& options = {});

  size_t rows_a() const { return NumRows(offsets_a_); }
  size_t rows_b() const { return NumRows(offsets_b_); }

  /// Rank/mask entries of one tuple (view into the CSR arenas).
  TupleTokens tuple_a(size_t row) const { return Tuple(offsets_a_, row); }
  TupleTokens tuple_b(size_t row) const { return Tuple(offsets_b_, row); }

  const TokenDictionary& dictionary() const { return dictionary_; }
  size_t num_attributes() const { return num_attributes_; }

  /// True when the build was cut short (CorpusBuildOptions::run_context or
  /// an injected fault): some rows have empty token lists and any join over
  /// the corpus is best-so-far, not exact.
  bool truncated() const { return truncated_; }

  /// Stage timings of the build that produced this corpus.
  const CorpusBuildStats& build_stats() const { return build_stats_; }

  /// Content generation of this corpus: 1 for a fresh Build, and the base's
  /// generation + 1 for an ApplyDelta patch — mirroring the service layer's
  /// shared-plane generation numbers, so planner statistics (and any other
  /// per-corpus cache) can be stamped and invalidated per content version.
  uint64_t generation() const { return generation_; }

  /// Corpus-level planner statistics (see CorpusPlannerStats). Lazy: the
  /// first call computes and caches them; later calls are a stamp check.
  /// Thread-safe; the returned reference is valid for the corpus lifetime.
  /// The cache is keyed to generation(), so a patched corpus never plans
  /// from its base's stats.
  const CorpusPlannerStats& PlannerStats() const;

  /// Dictionary entries whose document frequency dropped to zero through
  /// deltas (always 0 on freshly built corpora). Dead tokens rank after all
  /// live tokens, so content equality with a rebuild holds; once they
  /// dominate, the service compacts by rebuilding from scratch.
  size_t dead_tokens() const { return dead_tokens_; }
  double dead_token_fraction() const {
    return dictionary_.size() == 0
               ? 0.0
               : static_cast<double>(dead_tokens_) /
                     static_cast<double>(dictionary_.size());
  }

  /// Canonical content checksum: attribute count, row counts, and every
  /// row's sorted (rank, mask) entries. Token ids are build-order artifacts
  /// and are excluded; ranks are canonical, so a patched corpus and a
  /// from-scratch rebuild of the same mutated tables produce the same CRC —
  /// the delta-equivalence contract.
  uint32_t ContentCrc() const;

  /// Resident footprint of the CSR arenas and offset tables — exactly the
  /// bytes the backing mem::Arena reserved, which is exactly what it
  /// charged the memory budget (charge == reservation by construction).
  /// The sizing signal for the service's shared-plane LRU cache. Excludes
  /// the dictionary's string storage (small next to the arenas).
  size_t MemoryBytes() const {
    return arena_ != nullptr ? arena_->ReservedBytes() : 0;
  }

  /// Builds the token view of a config: zero-copy spans for fully covered
  /// rows, pooled scratch for the rest. Thread-safe (concurrent calls from
  /// scheduler tasks share the scratch pool under its mutex). The returned
  /// view holds spans into this corpus: the corpus must outlive it.
  ConfigView MakeConfigView(ConfigMask config) const;

  /// Token count of one tuple under `config`.
  static size_t ConfigLength(const TupleTokens& tuple, ConfigMask config);

 private:
  /// Re-binds every (empty) CSR vector to `arena` — called once by
  /// Build/ApplyDelta right after the metadata reservation succeeds.
  void BindVectorsToArena(mem::Arena* arena) {
    mem::BindToArena(ranks_, arena);
    mem::BindToArena(masks_, arena);
    mem::BindToArena(offsets_a_, arena);
    mem::BindToArena(offsets_b_, arena);
    mem::BindToArena(row_masks_, arena);
    mem::BindToArena(row_mask_counts_, arena);
    mem::BindToArena(mask_offsets_, arena);
  }

  static size_t NumRows(const mem::ArenaVector<uint64_t>& offsets) {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  TupleTokens Tuple(const mem::ArenaVector<uint64_t>& offsets,
                    size_t row) const {
    return TupleTokens{ranks_.data() + offsets[row],
                       masks_.data() + offsets[row],
                       static_cast<uint32_t>(offsets[row + 1] - offsets[row])};
  }

  // Backing store for every CSR vector below: one chunked arena, charged
  // against the build's MemoryBudget exactly ReservedBytes(). nullptr on a
  // default-constructed corpus or when the metadata reservation was refused
  // (the vectors then stay on the plain heap, empty, corpus truncated).
  // Owned behind unique_ptr so the corpus stays movable while allocators
  // keep a stable Arena address.
  std::unique_ptr<mem::Arena> arena_;
  // CSR arena: rows of A, then rows of B.
  mem::ArenaVector<uint32_t> ranks_;
  mem::ArenaVector<uint32_t> masks_;      // Parallel to ranks_.
  mem::ArenaVector<uint64_t> offsets_a_;  // rows_a + 1 entries.
  mem::ArenaVector<uint64_t> offsets_b_;  // rows_b + 1 entries.
  // Distinct attribute-mask summary per row (A rows then B rows), CSR:
  // row r's distinct masks are row_masks_[mask_offsets_[r]..[r+1]) with
  // parallel token counts in row_mask_counts_. A row is fully covered by
  // config g iff every one of its distinct masks intersects g — the O(#
  // distinct masks) test that makes zero-copy views O(rows). Rows carry a
  // handful of distinct masks (one per attribute combination that actually
  // occurs), so this is a fraction of the token arenas.
  mem::ArenaVector<uint32_t> row_masks_;
  mem::ArenaVector<uint32_t> row_mask_counts_;
  // rows_a + rows_b + 1 entries.
  mem::ArenaVector<uint64_t> mask_offsets_;
  TokenDictionary dictionary_;
  size_t num_attributes_ = 0;
  size_t dead_tokens_ = 0;
  uint64_t generation_ = 1;
  bool truncated_ = false;
  CorpusBuildStats build_stats_;
  // Lazily computed planner statistics, stamped with the generation they
  // describe. unique_ptr for the same reason as view_pool_: the cache owns
  // a mutex, and the indirection keeps SsjCorpus movable with the cache
  // address stable.
  struct PlannerStatsCache {
    std::mutex mutex;
    bool valid = false;
    CorpusPlannerStats stats;
  };
  std::unique_ptr<PlannerStatsCache> planner_stats_cache_ =
      std::make_unique<PlannerStatsCache>();
  // unique_ptr: keeps the pool's address stable across corpus moves (live
  // ConfigViews hold a pointer to it) and keeps SsjCorpus movable (the pool
  // owns a mutex).
  std::unique_ptr<ViewArenaPool> view_pool_ =
      std::make_unique<ViewArenaPool>();
};

}  // namespace mc

#endif  // MATCHCATCHER_SSJ_CORPUS_H_
