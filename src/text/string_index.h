#ifndef MATCHCATCHER_TEXT_STRING_INDEX_H_
#define MATCHCATCHER_TEXT_STRING_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace mc {

/// Interns strings to dense ids in first-appearance order: the first key
/// inserted gets id 0, the next new key id 1, and so on.
///
/// Flat open addressing: a power-of-two array of uint32_t ids probed
/// linearly, load factor <= 0.7, with each key's 64-bit hash cached by id
/// so a probe compares bytes only on a full hash match and a rehash never
/// re-hashes a key. Lookups take a string_view and allocate nothing; only
/// inserting a new key allocates, and then only when a vector grows.
///
/// Keys are stored flat: their bytes concatenated by id in one char vector,
/// with each id's end offset beside its hash — no per-key string header or
/// heap block, and copying the index copies four vectors.
///
/// `Hasher` maps a string_view to a 64-bit hash; tests substitute a
/// colliding one.
template <typename Hasher = std::hash<std::string_view>>
class BasicStringIndex {
 public:
  /// Find()'s answer for a key that was never inserted.
  static constexpr uint32_t kAbsent = ~uint32_t{0};

  /// The id of `key` and whether this call inserted it.
  std::pair<uint32_t, bool> Insert(std::string_view key) {
    const uint64_t hash = Hash(key);
    size_t slot = 0;
    if (!slots_.empty()) {
      slot = Probe(key, hash);
      if (slots_[slot] != kAbsent) return {slots_[slot], false};
    }
    if ((size() + 1) * 10 > slots_.size() * 7) {
      Rehash(slots_.empty() ? 16 : 2 * slots_.size());
      slot = EmptySlot(hash);
    }
    MC_CHECK_LT(size(), size_t{kAbsent}) << "string index is full";
    const uint32_t id = static_cast<uint32_t>(size());
    bytes_.insert(bytes_.end(), key.begin(), key.end());
    ends_.push_back(bytes_.size());
    hashes_.push_back(hash);
    slots_[slot] = id;
    return {id, true};
  }

  /// The id of `key`, or kAbsent.
  uint32_t Find(std::string_view key) const {
    if (slots_.empty()) return kAbsent;
    return slots_[Probe(key, Hash(key))];
  }

  /// The key with id `id`. The view is valid until the next Insert (the
  /// byte pool may move when it grows).
  std::string_view KeyOf(uint32_t id) const {
    MC_CHECK_LT(id, size());
    return KeyAt(id);
  }

  size_t size() const { return ends_.size(); }

 private:
  static uint64_t Hash(std::string_view key) {
    return static_cast<uint64_t>(Hasher{}(key));
  }

  std::string_view KeyAt(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(bytes_.data() + begin, ends_[id] - begin);
  }

  // The slot holding `key`, or the empty slot where it would go.
  size_t Probe(std::string_view key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const uint32_t id = slots_[slot];
      if (id == kAbsent || (hashes_[id] == hash && KeyAt(id) == key)) {
        return slot;
      }
    }
  }

  size_t EmptySlot(uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = hash & mask;
    while (slots_[slot] != kAbsent) slot = (slot + 1) & mask;
    return slot;
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, kAbsent);
    for (uint32_t id = 0; id < size(); ++id) {
      slots_[EmptySlot(hashes_[id])] = id;
    }
  }

  std::vector<uint32_t> slots_;  // Power-of-two; kAbsent marks empty.
  std::vector<char> bytes_;      // Every key's bytes, in id order.
  std::vector<size_t> ends_;     // By id: end of the key in bytes_.
  std::vector<uint64_t> hashes_;  // By id.
};

using StringIndex = BasicStringIndex<>;

}  // namespace mc

#endif  // MATCHCATCHER_TEXT_STRING_INDEX_H_
