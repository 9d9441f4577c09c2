#ifndef MATCHCATCHER_MEM_ARENA_H_
#define MATCHCATCHER_MEM_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/memory_budget.h"

namespace mc {
namespace mem {

/// How an Arena acquires its backing memory.
struct ArenaOptions {
  /// Growth granularity: chunks are at least this big (page-rounded).
  /// Callers that know their total size Reserve() it up front and never
  /// grow; the chunk size only matters for open-ended scratch arenas.
  size_t chunk_bytes = size_t{1} << 20;
  /// Advise transparent huge pages for each chunk (best effort).
  bool huge_pages = false;
  /// Budget charged exactly ReservedBytes(): every chunk is charged when
  /// reserved and released when the arena dies. nullptr = uncharged.
  MemoryBudget* budget = nullptr;
  /// Stats/debugging label ("text_plane", "corpus", "join_scratch").
  std::string tag = "arena";
};

/// Chunked reserve/commit bump allocator: the backing store for every large
/// CSR plane (token streams, rank/mask arenas, inverted-index scratch).
///
/// Contract with MemoryBudget: the arena charges the budget *exactly* what
/// it reserves, chunk by chunk, and releases exactly that on destruction —
/// `budget->used()` moves by ReservedBytes(), never an estimate. Reserve()
/// returns false when the budget refuses (or the `mem/arena_reserve` fault
/// point fires); the caller degrades (truncated plane, rejected delta).
/// Allocate() grows by a fresh chunk when the reserved space runs out and
/// throws std::bad_alloc if that growth is refused — builders catch it at
/// the same boundary where they handle a refused Reserve.
///
/// Thread-safe for concurrent Allocate; Reset and destruction require
/// external quiescence (no allocation in flight, no live references).
/// Not movable: allocators hold stable Arena pointers, so planes own their
/// arena behind a unique_ptr and move the pointer.
class Arena {
 public:
  explicit Arena(ArenaOptions options = {});
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rounds `bytes` up to the arena's allocation granularity (one cache
  /// line). Callers computing an exact Reserve() total sum AlignedSize over
  /// their planned allocations so the single reserved chunk always fits.
  static constexpr size_t AlignedSize(size_t bytes) {
    return (bytes + kAlign - 1) & ~(kAlign - 1);
  }

  /// Adds one chunk of at least `bytes` (page-rounded), charging the
  /// budget. Returns false — arena unchanged, nothing charged — when the
  /// budget refuses or the "mem/arena_reserve" fault point fires.
  bool Reserve(size_t bytes);

  /// Bump-allocates `bytes` (cache-line aligned), growing by a new chunk
  /// if needed. Throws std::bad_alloc when growth is refused.
  void* Allocate(size_t bytes, size_t alignment = kAlign);

  /// Rewinds every chunk to empty, keeping the memory and its budget
  /// charge — the reuse path for pooled scratch arenas.
  void Reset();

  /// Sum of chunk sizes == bytes charged to the budget.
  size_t ReservedBytes() const;
  /// Bytes handed out since construction/Reset (<= ReservedBytes()).
  size_t UsedBytes() const;

  const std::string& tag() const { return options_.tag; }

  static constexpr size_t kAlign = 64;

 private:
  struct Chunk {
    std::byte* base = nullptr;
    size_t size = 0;
    size_t used = 0;
    bool mmapped = false;
  };

  /// Appends a chunk of at least `bytes`. Caller holds mutex_.
  bool ReserveLocked(size_t bytes);

  mutable std::mutex mutex_;
  ArenaOptions options_;
  std::vector<Chunk> chunks_;
  size_t active_ = 0;  // First chunk Allocate bumps from (see Reset).
  size_t reserved_ = 0;
  size_t charged_ = 0;
};

}  // namespace mem
}  // namespace mc

#endif  // MATCHCATCHER_MEM_ARENA_H_
