// Copyright 2026 The MinoanER Authors.
// Fixed-capacity top-k selection, used by cardinality pruning (CEP/CNP) in
// meta-blocking: keep the k highest-weighted comparisons of a stream.

#ifndef MINOAN_UTIL_TOPK_H_
#define MINOAN_UTIL_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace minoan {

/// Maintains the k largest items (by `Compare`, default operator<) seen so
/// far using a min-heap of size <= k. Push is O(log k); extraction sorts
/// descending.
template <typename T, typename Compare = std::less<T>>
class TopK {
 public:
  explicit TopK(size_t k, Compare cmp = Compare())
      : k_(k), cmp_(std::move(cmp)) {
    // Cap the up-front reservation: k may be huge (e.g. CEP's BC/2) while
    // the stream is short, and sharded pruning keeps many TopK instances
    // alive at once.
    heap_.reserve(std::max<size_t>(1, std::min<size_t>(k, 1024)));
  }

  /// Offers one item; keeps it only if it is among the k largest so far.
  void Push(const T& item) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(item);
      std::push_heap(heap_.begin(), heap_.end(), Greater());
      return;
    }
    if (cmp_(heap_.front(), item)) {  // item > current minimum
      std::pop_heap(heap_.begin(), heap_.end(), Greater());
      heap_.back() = item;
      std::push_heap(heap_.begin(), heap_.end(), Greater());
    }
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Returns the retained items sorted largest-first and leaves the heap
  /// empty. (sort_heap orders ascending by its comparator; ascending by
  /// Greater == descending by cmp_.)
  std::vector<T> TakeSortedDescending() {
    std::sort_heap(heap_.begin(), heap_.end(), Greater());
    std::vector<T> out = std::move(heap_);
    heap_.clear();
    return out;
  }

 private:
  // Min-heap ordering: parent smaller than children under cmp_.
  struct GreaterImpl {
    const Compare* cmp;
    bool operator()(const T& a, const T& b) const { return (*cmp)(b, a); }
  };
  GreaterImpl Greater() const { return GreaterImpl{&cmp_}; }

  size_t k_;
  Compare cmp_;
  std::vector<T> heap_;
};

}  // namespace minoan

#endif  // MINOAN_UTIL_TOPK_H_
