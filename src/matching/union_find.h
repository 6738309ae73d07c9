// Copyright 2026 The MinoanER Authors.
// Union-find with rank + path halving, tracking cluster sizes.
//
// Used for the transitive closure of matches (dirty ER), the ground-truth
// equivalence clusters, and the progressive resolver's partial-result state.

#ifndef MINOAN_MATCHING_UNION_FIND_H_
#define MINOAN_MATCHING_UNION_FIND_H_

#include <cstdint>
#include <vector>

namespace minoan {

class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n), size_(n, 1) {
    for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true when they were distinct.
  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

  bool SameSet(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  /// Grows the universe to `n` elements, each new element a singleton.
  /// Shrinking is not supported (existing merges would dangle); n <= current
  /// size is a no-op.
  void Resize(uint32_t n) {
    const uint32_t old = static_cast<uint32_t>(parent_.size());
    if (n <= old) return;
    parent_.resize(n);
    size_.resize(n, 1);
    for (uint32_t i = old; i < n; ++i) parent_[i] = i;
  }

  /// Size of the set containing x.
  uint32_t SetSize(uint32_t x) { return size_[Find(x)]; }

  uint32_t num_elements() const {
    return static_cast<uint32_t>(parent_.size());
  }

  /// Groups elements by root; clusters sorted by smallest member. Only
  /// clusters with >= min_size members are returned.
  std::vector<std::vector<uint32_t>> Clusters(uint32_t min_size = 1);

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace minoan

#endif  // MINOAN_MATCHING_UNION_FIND_H_
