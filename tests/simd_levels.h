#ifndef MATCHCATCHER_TESTS_SIMD_LEVELS_H_
#define MATCHCATCHER_TESTS_SIMD_LEVELS_H_

// Test helpers for running a check once per SIMD dispatch level.

#include <vector>

#include <gtest/gtest.h>

#include "simd/kernels.h"

namespace mc::simd {

// Every level this binary and CPU can run, scalar first.
inline std::vector<SimdLevel> UsableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (MaxSupportedSimdLevel() >= SimdLevel::kSse4) {
    levels.push_back(SimdLevel::kSse4);
  }
  if (MaxSupportedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

// Pins the dispatch level for a scope and restores the ambient one after.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : previous_(ActiveSimdLevel()) {
    EXPECT_TRUE(SetSimdLevel(level));
  }
  ~ScopedSimdLevel() { SetSimdLevel(previous_); }

  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

}  // namespace mc::simd

#endif  // MATCHCATCHER_TESTS_SIMD_LEVELS_H_
