#include "simd/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernels_impl.h"

namespace mc::simd {

namespace internal {

size_t ScalarOverlap(const uint32_t* a, size_t len_a, const uint32_t* b,
                     size_t len_b) {
  // Branchless advance (see ssj/topk_join.cc): which pointer moves is
  // data-dependent and unpredictable, so `i += (x <= y)` beats an if/else
  // chain; only the (rare, predictable) match test stays a branch.
  size_t i = 0, j = 0, count = 0;
  while (i < len_a && j < len_b) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

bool ScalarOverlapAtLeast(const uint32_t* a, size_t len_a, const uint32_t* b,
                          size_t len_b, size_t required, size_t* overlap) {
  size_t i = 0, j = 0, count = 0;
  while (i < len_a && j < len_b) {
    if (count + std::min(len_a - i, len_b - j) < required) return false;
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  // One side exhausted before the positional bound fired: the final count
  // still decides, keeping `true iff count >= required` exact at all levels.
  if (count < required) return false;
  *overlap = count;
  return true;
}

size_t ScalarOverlapResume(const uint32_t* a, size_t len_a, const uint32_t* b,
                           size_t len_b, size_t* i, size_t* j, size_t steps) {
  size_t count = 0;
  while (steps-- > 0 && *i < len_a && *j < len_b) {
    const uint32_t x = a[*i];
    const uint32_t y = b[*j];
    count += x == y;
    *i += x <= y;
    *j += y <= x;
  }
  return count;
}

size_t GallopOverlap(const uint32_t* a, size_t len_a, const uint32_t* b,
                     size_t len_b) {
  // Iterate the short side; gallop (exponential probe + binary search) for
  // each element in the long side's remainder. A matched long-side element
  // is consumed, which reproduces the greedy merge's multiset count
  // exactly: value v contributes min(multiplicity_a(v), multiplicity_b(v)).
  size_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a && j < len_b; ++i) {
    const uint32_t x = a[i];
    if (b[j] < x) {
      size_t low = j;  // Invariant: b[low] < x.
      size_t step = 1;
      while (low + step < len_b && b[low + step] < x) {
        low += step;
        step <<= 1;
      }
      size_t high = std::min(low + step, len_b);  // b[high] >= x or == end.
      while (low + 1 < high) {
        const size_t mid = low + (high - low) / 2;
        if (b[mid] < x) {
          low = mid;
        } else {
          high = mid;
        }
      }
      j = high;
      if (j >= len_b) break;
    }
    if (b[j] == x) {
      ++j;
      ++count;
    }
  }
  return count;
}

const KernelTable& ScalarKernels() {
  static const KernelTable table = {&ScalarOverlap, &ScalarOverlapAtLeast};
  return table;
}

}  // namespace internal

namespace {

using internal::KernelTable;

#if defined(__x86_64__) || defined(__i386__)
bool CpuHasSse4() { return __builtin_cpu_supports("sse4.2"); }
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
#else
bool CpuHasSse4() { return false; }
bool CpuHasAvx2() { return false; }
#endif

// The active dispatch state: one pointer so level and table can never be
// observed torn.
struct ActiveState {
  SimdLevel level;
  const KernelTable* table;
};

const ActiveState* StateFor(SimdLevel level) {
  static const ActiveState states[3] = {
      {SimdLevel::kScalar, &internal::ScalarKernels()},
      {SimdLevel::kSse4, internal::Sse4Kernels()},
      {SimdLevel::kAvx2, internal::Avx2Kernels()},
  };
  return &states[static_cast<int>(level)];
}

bool LevelUsable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSse4:
      return StateFor(SimdLevel::kSse4)->table != nullptr && CpuHasSse4();
    case SimdLevel::kAvx2:
      return StateFor(SimdLevel::kAvx2)->table != nullptr && CpuHasAvx2();
  }
  return false;
}

// Parses MC_SIMD_LEVEL; returns false when unset or unrecognized (an
// unrecognized value gets a one-line note and auto dispatch, so a typo'd
// override degrades loudly instead of silently pinning scalar).
bool ParseEnvLevel(SimdLevel* level) {
  const char* value = std::getenv("MC_SIMD_LEVEL");
  if (value == nullptr || *value == '\0') return false;
  if (std::strcmp(value, "scalar") == 0) {
    *level = SimdLevel::kScalar;
  } else if (std::strcmp(value, "sse4") == 0) {
    *level = SimdLevel::kSse4;
  } else if (std::strcmp(value, "avx2") == 0) {
    *level = SimdLevel::kAvx2;
  } else {
    std::fprintf(stderr,
                 "matchcatcher: ignoring unrecognized MC_SIMD_LEVEL='%s' "
                 "(expected scalar|sse4|avx2)\n",
                 value);
    return false;
  }
  return true;
}

std::atomic<const ActiveState*> g_active{nullptr};

const ActiveState* Resolve() {
  SimdLevel level = MaxSupportedSimdLevel();
  SimdLevel requested;
  if (ParseEnvLevel(&requested)) {
    if (LevelUsable(requested)) {
      level = requested;
    } else {
      std::fprintf(stderr,
                   "matchcatcher: MC_SIMD_LEVEL=%s unsupported on this "
                   "CPU/build; using %s\n",
                   SimdLevelName(requested), SimdLevelName(level));
    }
  }
  return StateFor(level);
}

const ActiveState* Active() {
  const ActiveState* state = g_active.load(std::memory_order_acquire);
  if (state == nullptr) {
    // Benign race: concurrent first calls resolve to the same state.
    state = Resolve();
    g_active.store(state, std::memory_order_release);
  }
  return state;
}

// Shared front door of the count kernels: empty/ordering normalization and
// the skew cut-over to the (level-independent) galloping path, so every
// level sees only the balanced case.
inline size_t CountWith(const KernelTable& table, const uint32_t* a,
                        size_t len_a, const uint32_t* b, size_t len_b) {
  if (len_a > len_b) {
    std::swap(a, b);
    std::swap(len_a, len_b);
  }
  if (len_a == 0) return 0;
  if (len_b / len_a >= internal::kGallopSkew) {
    return internal::GallopOverlap(a, len_a, b, len_b);
  }
  return table.overlap(a, len_a, b, len_b);
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse4:
      return "sse4";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel MaxSupportedSimdLevel() {
  if (LevelUsable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  if (LevelUsable(SimdLevel::kSse4)) return SimdLevel::kSse4;
  return SimdLevel::kScalar;
}

SimdLevel ActiveSimdLevel() { return Active()->level; }

bool SetSimdLevel(SimdLevel level) {
  if (!LevelUsable(level)) return false;
  g_active.store(StateFor(level), std::memory_order_release);
  return true;
}

std::string SimdCpuFlags() {
  std::string flags;
  auto add = [&](const char* flag) {
    if (!flags.empty()) flags += ' ';
    flags += flag;
  };
  if (CpuHasSse4()) add("sse4.2");
  if (CpuHasAvx2()) add("avx2");
  if (flags.empty()) flags = "none";
  return flags;
}

size_t OverlapCount(const uint32_t* a, size_t len_a, const uint32_t* b,
                    size_t len_b) {
  return CountWith(*Active()->table, a, len_a, b, len_b);
}

bool OverlapAtLeast(const uint32_t* a, size_t len_a, const uint32_t* b,
                    size_t len_b, size_t required, size_t* overlap) {
  if (len_a > len_b) {
    std::swap(a, b);
    std::swap(len_a, len_b);
  }
  if (required > len_a) return false;  // Even full containment falls short.
  if (len_a == 0) {
    *overlap = 0;
    return true;  // required == 0.
  }
  if (len_b / len_a >= internal::kGallopSkew) {
    const size_t count = internal::GallopOverlap(a, len_a, b, len_b);
    if (count < required) return false;
    *overlap = count;
    return true;
  }
  return Active()->table->overlap_at_least(a, len_a, b, len_b, required,
                                           overlap);
}

void OverlapMany(RankSpan probe, const RankSpan* candidates, size_t count,
                 size_t* overlaps) {
  const KernelTable& table = *Active()->table;
  for (size_t i = 0; i < count; ++i) {
    overlaps[i] = CountWith(table, probe.data, probe.length,
                            candidates[i].data, candidates[i].length);
  }
}

void ScoreMany(RankSpan probe, const RankSpan* candidates, size_t count,
               SetMeasure measure, double* scores) {
  const KernelTable& table = *Active()->table;
  for (size_t i = 0; i < count; ++i) {
    const size_t overlap = CountWith(table, probe.data, probe.length,
                                     candidates[i].data, candidates[i].length);
    scores[i] = SetSimilarityFromCounts(measure, probe.size(),
                                        candidates[i].size(), overlap);
  }
}

}  // namespace mc::simd
