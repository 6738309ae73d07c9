// Copyright 2026 The MinoanER Authors.
// Flat open-addressing hash tables for uint64 pair keys and POD values.
//
// The progressive loops' pair→slot index (progressive/scheduler.h) is keyed
// by a packed PairKey (util/hash.h) and holds a small POD payload.
// std::unordered_map spends a heap allocation and a pointer chase per entry
// on exactly these lookups; FlatPairMap replaces that with one contiguous
// slot array, a Mix64 probe over a power-of-two capacity, and linear
// probing — the whole entry lives in the probed cache line.
//
// Deletion is tombstone-free: Erase backward-shifts the displaced run, so
// probe sequences never degrade and Clear needs no generation counters.
//
// Determinism contract: iteration order (ForEach) is an implementation
// detail of the probe layout and MUST never become observable — callers
// that serialize or compare contents canonicalize into ascending-key order
// first, exactly as they did over std::unordered_map. All serialization
// paths in this repo already do so.
//
// Reserved key: ~0 (all ones) marks empty slots. A packed pair key of two
// dense entity ids never produces it (ids are < num_entities <= 2^32 - 1),
// which is asserted, not silently mishandled.

#ifndef MINOAN_UTIL_FLAT_TABLE_H_
#define MINOAN_UTIL_FLAT_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace minoan {

namespace flat_internal {

/// Smallest power-of-two capacity that keeps `n` entries under the 0.7
/// load-factor ceiling (the same discipline as StringInterner).
inline size_t CapacityFor(size_t n) {
  size_t capacity = 16;
  while (capacity * 7 < n * 10) capacity <<= 1;
  return capacity;
}

}  // namespace flat_internal

/// Open-addressing map from uint64 pair keys to a POD value. See the file
/// comment for the layout and determinism contract.
template <typename Value>
class FlatPairMap {
  static_assert(std::is_trivially_copyable_v<Value> &&
                    std::is_trivially_destructible_v<Value>,
                "FlatPairMap holds POD values only");

 public:
  /// Reserved key marking empty slots; never a valid packed pair key.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  FlatPairMap() = default;

  /// Ensures `n` entries fit without rehashing.
  void Reserve(size_t n) {
    const size_t capacity = flat_internal::CapacityFor(n);
    if (capacity > slots_.size()) Rehash(capacity);
  }

  /// Pointer to the value of `key`, or nullptr when absent. Invalidated by
  /// any mutation.
  Value* Find(uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).Find(key));
  }
  const Value* Find(uint64_t key) const {
    assert(key != kEmptyKey);
    if (size_ == 0) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  /// Value of `key`, value-initializing (zeroing) it on first sight.
  /// `created` (optional) reports whether this was an insertion. The
  /// reference is invalidated by any subsequent mutation.
  Value& FindOrInsert(uint64_t key, bool* created = nullptr) {
    assert(key != kEmptyKey);
    GrowIfNeeded();
    const size_t mask = slots_.size() - 1;
    size_t i = Mix64(key) & mask;
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    const bool inserted = slots_[i].key == kEmptyKey;
    if (inserted) {
      slots_[i].key = key;
      slots_[i].value = Value{};
      ++size_;
    }
    if (created != nullptr) *created = inserted;
    return slots_[i].value;
  }

  /// Inserts `key` or overwrites its existing value.
  void InsertOrAssign(uint64_t key, const Value& value) {
    FindOrInsert(key) = value;
  }

  /// Removes `key`, backward-shifting the displaced probe run so no
  /// tombstone is left behind. Returns whether the key was present.
  bool Erase(uint64_t key) {
    assert(key != kEmptyKey);
    if (size_ == 0) return false;
    const size_t mask = slots_.size() - 1;
    size_t i = Mix64(key) & mask;
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask;
    }
    // Backward-shift deletion: pull forward every entry of the collision
    // run that would become unreachable through the hole at i.
    size_t hole = i;
    for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      if (slots_[j].key == kEmptyKey) break;
      const size_t home = Mix64(slots_[j].key) & mask;
      // Move j into the hole unless its home lies strictly inside
      // (hole, j] — then the probe path from home to j never crosses the
      // hole and the entry must stay put.
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Drops every entry, retaining capacity.
  void Clear() {
    for (Slot& slot : slots_) slot.key = kEmptyKey;
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot count of the backing array (diagnostics / benches).
  size_t capacity() const { return slots_.size(); }

  /// Calls fn(key, const Value&) for every entry in UNSPECIFIED order —
  /// canonicalize (sort by key) before any order-sensitive use.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    uint64_t key;
    Value value;
  };

  void GrowIfNeeded() {
    if (slots_.empty()) {
      Rehash(16);
    } else if ((size_ + 1) * 10 > slots_.size() * 7) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{kEmptyKey, Value{}});
    const size_t mask = new_capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      size_t i = Mix64(slot.key) & mask;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace minoan

#endif  // MINOAN_UTIL_FLAT_TABLE_H_
