#include "blocking/candidate_set.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace mc {

namespace {

constexpr size_t kMinCapacity = 16;

// Smallest power-of-two slot count holding `count` pairs at load <= 0.7.
size_t CapacityFor(size_t count) {
  size_t capacity = kMinCapacity;
  while (capacity * 7 < count * 10) capacity <<= 1;
  return capacity;
}

}  // namespace

void CandidateSet::Reserve(size_t expected) {
  const size_t capacity = CapacityFor(expected);
  if (capacity > slots_.size()) Rehash(capacity);
}

void CandidateSet::Add(PairId pair) {
  MC_CHECK(pair != kEmpty);
  if ((size_ + 1) * 10 > slots_.size() * 7) {
    Rehash(std::max(kMinCapacity, slots_.size() * 2));
  }
  const size_t mask = slots_.size() - 1;
  size_t index = PairIdHash{}(pair) & mask;
  while (slots_[index] != kEmpty) {
    if (slots_[index] == pair) return;
    index = (index + 1) & mask;
  }
  slots_[index] = pair;
  ++size_;
}

void CandidateSet::Rehash(size_t capacity) {
  const std::vector<PairId> old_slots =
      std::exchange(slots_, std::vector<PairId>(capacity, kEmpty));
  const size_t mask = capacity - 1;
  for (PairId pair : old_slots) {
    if (pair == kEmpty) continue;
    size_t index = PairIdHash{}(pair) & mask;
    while (slots_[index] != kEmpty) index = (index + 1) & mask;
    slots_[index] = pair;
  }
}

void CandidateSet::UnionWith(const CandidateSet& other) {
  if (&other == this) return;
  for (PairId pair : other) Add(pair);
}

size_t CandidateSet::IntersectionSize(const CandidateSet& other) const {
  const CandidateSet& small = size() <= other.size() ? *this : other;
  const CandidateSet& large = size() <= other.size() ? other : *this;
  size_t count = 0;
  for (PairId pair : small) {
    if (large.Contains(pair)) ++count;
  }
  return count;
}

std::vector<PairId> CandidateSet::SortedPairs() const {
  std::vector<PairId> result;
  result.reserve(size_);
  for (PairId pair : *this) result.push_back(pair);
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace mc
