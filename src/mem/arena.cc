#include "mem/arena.h"

#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "util/fault_injection.h"

namespace mc {
namespace mem {
namespace {

constexpr size_t kPageSize = 4096;

size_t PageRound(size_t bytes) {
  return (bytes + kPageSize - 1) & ~(kPageSize - 1);
}

}  // namespace

Arena::Arena(ArenaOptions options) : options_(std::move(options)) {}

Arena::~Arena() {
  for (Chunk& chunk : chunks_) {
    if (chunk.mmapped) {
#if defined(__linux__)
      ::munmap(chunk.base, chunk.size);
#endif
    } else {
      ::operator delete(chunk.base, std::align_val_t{kAlign});
    }
  }
  if (options_.budget != nullptr && charged_ > 0) {
    options_.budget->Release(charged_);
  }
}

bool Arena::ReserveLocked(size_t bytes) {
  if (MC_FAULT_POINT("mem/arena_reserve") != FaultKind::kNone) return false;
  const size_t size = PageRound(bytes);
  if (options_.budget != nullptr && !options_.budget->TryCharge(size)) {
    return false;
  }
  Chunk chunk;
  chunk.size = size;
#if defined(__linux__)
  void* mapped = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped != MAP_FAILED) {
    chunk.base = static_cast<std::byte*>(mapped);
    chunk.mmapped = true;
#if defined(MADV_HUGEPAGE)
    // Best effort: a refused advice leaves plain pages.
    if (options_.huge_pages) ::madvise(chunk.base, size, MADV_HUGEPAGE);
#endif
  }
#endif
  if (chunk.base == nullptr) {
    // mmap unavailable or failed: plain aligned heap pages.
    chunk.base = static_cast<std::byte*>(
        ::operator new(size, std::align_val_t{kAlign}, std::nothrow));
    if (chunk.base == nullptr) {
      if (options_.budget != nullptr) options_.budget->Release(size);
      return false;
    }
  }
  chunks_.push_back(chunk);
  reserved_ += size;
  charged_ += options_.budget != nullptr ? size : 0;
  return true;
}

bool Arena::Reserve(size_t bytes) {
  if (bytes == 0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  return ReserveLocked(bytes);
}

void* Arena::Allocate(size_t bytes, size_t alignment) {
  if (alignment < kAlign) alignment = kAlign;
  std::lock_guard<std::mutex> lock(mutex_);
  // Bump from the active chunk onward; Reset() rewinds active_ so retained
  // chunks are reused front to back.
  for (size_t c = active_; c < chunks_.size(); ++c) {
    Chunk& chunk = chunks_[c];
    const size_t aligned =
        (chunk.used + alignment - 1) & ~(alignment - 1);
    if (aligned + bytes <= chunk.size) {
      chunk.used = aligned + bytes;
      active_ = c;
      return chunk.base + aligned;
    }
  }
  const size_t need = bytes + alignment;
  if (!ReserveLocked(need > options_.chunk_bytes ? need
                                                 : options_.chunk_bytes)) {
    throw std::bad_alloc();
  }
  Chunk& chunk = chunks_.back();
  const size_t aligned = (chunk.used + alignment - 1) & ~(alignment - 1);
  chunk.used = aligned + bytes;
  active_ = chunks_.size() - 1;
  return chunk.base + aligned;
}

void Arena::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Chunk& chunk : chunks_) chunk.used = 0;
  active_ = 0;
}

size_t Arena::ReservedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reserved_;
}

size_t Arena::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t used = 0;
  for (const Chunk& chunk : chunks_) used += chunk.used;
  return used;
}

}  // namespace mem
}  // namespace mc
