// SSE4 variants of the intersection kernels. This TU (and only this TU) is
// compiled with -msse4.2 — see src/CMakeLists.txt — so nothing here may be
// called before dispatch has confirmed CPU support (simd/kernels.cc gates on
// __builtin_cpu_supports("sse4.2")).

#include "simd/kernels_impl.h"

#if defined(__SSE4_2__)

#include <smmintrin.h>

#include "simd/block_core.h"

namespace mc::simd::internal {
namespace {

struct Sse4Ops {
  static constexpr size_t kWidth = 4;

  // How many of a[0..4) appear in b[0..4): compare the a block against all
  // four rotations of the b block and OR the equality masks — each a lane's
  // bit survives iff its value occurs anywhere in the b block.
  static size_t Matches(const uint32_t* a, const uint32_t* b) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    __m128i hit = _mm_cmpeq_epi32(va, vb);
    hit = _mm_or_si128(
        hit, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    hit = _mm_or_si128(
        hit, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    hit = _mm_or_si128(
        hit, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    return static_cast<size_t>(
        _mm_popcnt_u32(static_cast<uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(hit)))));
  }

  // Any adjacent equal pair within p[0..4]? One shifted compare covers the
  // block and its boundary into the next element.
  static bool HasAdjacentDup(const uint32_t* p) {
    const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1));
    return _mm_movemask_epi8(_mm_cmpeq_epi32(v0, v1)) != 0;
  }
};

}  // namespace

const KernelTable* Sse4Kernels() {
  static const KernelTable table = {&BlockOverlap<Sse4Ops>,
                                    &BlockOverlapAtLeast<Sse4Ops>};
  return &table;
}

}  // namespace mc::simd::internal

#else  // !defined(__SSE4_2__)

namespace mc::simd::internal {

const KernelTable* Sse4Kernels() { return nullptr; }

}  // namespace mc::simd::internal

#endif
