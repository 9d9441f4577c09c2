#ifndef MATCHCATCHER_SIMD_KERNELS_IMPL_H_
#define MATCHCATCHER_SIMD_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>

// Internal plumbing of the kernel plane (see kernels.h for the public
// contract). Each dispatch level fills a KernelTable; the SSE4/AVX2 tables
// live in their own translation units compiled with the matching -m flags,
// and expose null when the compiler lacks the ISA so dispatch degrades to
// scalar instead of failing the build.

namespace mc::simd::internal {

struct KernelTable {
  size_t (*overlap)(const uint32_t* a, size_t len_a, const uint32_t* b,
                    size_t len_b);
  bool (*overlap_at_least)(const uint32_t* a, size_t len_a, const uint32_t* b,
                           size_t len_b, size_t required, size_t* overlap);
};

/// One side this many times longer than the other diverts to the galloping
/// path (shared by every level; see GallopOverlap).
inline constexpr size_t kGallopSkew = 32;

/// Greedy-merge count of the skewed case via galloping (exponential probe +
/// binary search) over the longer side. Matched elements of the long side
/// are consumed (search resumes past them), which reproduces the merge's
/// multiset semantics exactly — the property tests compare this against the
/// scalar merge on duplicate-laden inputs. `len_a <= len_b` is the
/// caller's job.
size_t GallopOverlap(const uint32_t* a, size_t len_a, const uint32_t* b,
                     size_t len_b);

/// Scalar reference kernels (always available; also the tail loops of the
/// vector kernels).
size_t ScalarOverlap(const uint32_t* a, size_t len_a, const uint32_t* b,
                     size_t len_b);
bool ScalarOverlapAtLeast(const uint32_t* a, size_t len_a, const uint32_t* b,
                          size_t len_b, size_t required, size_t* overlap);

/// Scalar merge over [i, len) resumption points, used by the vector kernels
/// to step past duplicate runs without losing exactness.
size_t ScalarOverlapResume(const uint32_t* a, size_t len_a, const uint32_t* b,
                           size_t len_b, size_t* i, size_t* j, size_t steps);

const KernelTable& ScalarKernels();

/// Vector tables, or nullptr when this binary was compiled without the ISA
/// (non-x86 target or a compiler missing -msse4.2 / -mavx2 support).
const KernelTable* Sse4Kernels();
const KernelTable* Avx2Kernels();

}  // namespace mc::simd::internal

#endif  // MATCHCATCHER_SIMD_KERNELS_IMPL_H_
