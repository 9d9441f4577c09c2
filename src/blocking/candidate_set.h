#ifndef MATCHCATCHER_BLOCKING_CANDIDATE_SET_H_
#define MATCHCATCHER_BLOCKING_CANDIDATE_SET_H_

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "blocking/pair.h"

namespace mc {

/// A set of tuple pairs. This is both the output `C` of a blocker and the
/// representation of gold match sets `M` in tests/benchmarks.
///
/// Flat open-addressing storage: one PairId per slot, linear probing,
/// power-of-two capacity, load factor <= 0.7, hashed with PairIdHash. A
/// probe touches one cache line and no node is allocated per pair, so
/// building C and probing it (the joins' exclusion check, the verifier)
/// cost a fraction of a node-based set. The all-ones PairId is reserved as
/// the empty slot; packed pairs never reach it (tables are < 2^32 rows).
///
/// Iteration visits slots in storage order, which depends on the insertion
/// history; anything that prints or keeps order uses SortedPairs().
class CandidateSet {
 public:
  /// Forward iterator over the stored pairs (skips empty slots).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PairId;
    using difference_type = std::ptrdiff_t;
    using pointer = const PairId*;
    using reference = const PairId&;

    const_iterator() = default;
    reference operator*() const { return *slot_; }
    const_iterator& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }
    bool operator!=(const const_iterator& other) const {
      return slot_ != other.slot_;
    }

   private:
    friend class CandidateSet;
    const_iterator(const PairId* slot, const PairId* end)
        : slot_(slot), end_(end) {
      SkipEmpty();
    }
    void SkipEmpty() {
      while (slot_ != end_ && *slot_ == kEmpty) ++slot_;
    }

    const PairId* slot_ = nullptr;
    const PairId* end_ = nullptr;
  };

  CandidateSet() = default;
  CandidateSet(const CandidateSet&) = default;
  CandidateSet& operator=(const CandidateSet&) = default;
  CandidateSet(CandidateSet&& other) noexcept
      : slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)) {
    other.slots_.clear();
  }
  CandidateSet& operator=(CandidateSet&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      size_ = std::exchange(other.size_, 0);
      other.slots_.clear();
    }
    return *this;
  }

  /// Pre-sizes the table so `expected` pairs fit without rehashing.
  void Reserve(size_t expected);

  void Add(RowId a, RowId b) { Add(MakePairId(a, b)); }
  void Add(PairId pair);

  bool Contains(RowId a, RowId b) const {
    return Contains(MakePairId(a, b));
  }
  bool Contains(PairId pair) const {
    if (slots_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    for (size_t index = PairIdHash{}(pair) & mask;;
         index = (index + 1) & mask) {
      if (slots_[index] == pair) return true;
      if (slots_[index] == kEmpty) return false;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts every pair of `other` into this set (blocker union).
  void UnionWith(const CandidateSet& other);

  /// Number of pairs present in both this set and `other`.
  size_t IntersectionSize(const CandidateSet& other) const;

  /// Stable snapshot of the pairs (sorted for determinism).
  std::vector<PairId> SortedPairs() const;

  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    const PairId* last = slots_.data() + slots_.size();
    return const_iterator(last, last);
  }

 private:
  static constexpr PairId kEmpty = ~PairId{0};

  // Moves every pair into a table of `capacity` slots (a power of two).
  void Rehash(size_t capacity);

  std::vector<PairId> slots_;  // Empty, or a power-of-two slot count.
  size_t size_ = 0;
};

}  // namespace mc

#endif  // MATCHCATCHER_BLOCKING_CANDIDATE_SET_H_
