// AVX2 variants of the intersection kernels. This TU (and only this TU) is
// compiled with -mavx2 — see src/CMakeLists.txt — so nothing here may be
// called before dispatch has confirmed CPU support (simd/kernels.cc gates on
// __builtin_cpu_supports("avx2")).

#include "simd/kernels_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "simd/block_core.h"

namespace mc::simd::internal {
namespace {

struct Avx2Ops {
  static constexpr size_t kWidth = 8;

  // How many of a[0..8) appear in b[0..8): compare the a block against all
  // eight rotations of the b block (cross-lane rotations via
  // permutevar8x32) and OR the equality masks.
  static size_t Matches(const uint32_t* a, const uint32_t* b) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    __m256i hit = _mm256_cmpeq_epi32(va, vb);
    __m256i rot = vb;
    const __m256i shift_one = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    for (int r = 1; r < 8; ++r) {
      rot = _mm256_permutevar8x32_epi32(rot, shift_one);
      hit = _mm256_or_si256(hit, _mm256_cmpeq_epi32(va, rot));
    }
    return static_cast<size_t>(
        _mm_popcnt_u32(static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)))));
  }

  // Any adjacent equal pair within p[0..8]? One shifted compare covers the
  // block and its boundary into the next element.
  static bool HasAdjacentDup(const uint32_t* p) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 1));
    return _mm256_movemask_epi8(_mm256_cmpeq_epi32(v0, v1)) != 0;
  }
};

}  // namespace

const KernelTable* Avx2Kernels() {
  static const KernelTable table = {&BlockOverlap<Avx2Ops>,
                                    &BlockOverlapAtLeast<Avx2Ops>};
  return &table;
}

}  // namespace mc::simd::internal

#else  // !defined(__AVX2__)

namespace mc::simd::internal {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace mc::simd::internal

#endif
