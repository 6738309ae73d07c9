// Copyright 2026 The MinoanER Authors.
// Block collections.
//
// Blocking places likely-matching descriptions into (overlapping) blocks; the
// matcher then compares only descriptions sharing a block. MinoanER's
// blocking is schema-agnostic: keys are tokens (or URI parts), never
// hand-picked attributes — the poster's "minimal number of assumptions about
// how entities match".
//
// A block is stored as its entity membership only: the key decides which
// entities meet, and after that nothing downstream (cleaning, the blocking
// graph, pruning) reads it.

#ifndef MINOAN_BLOCKING_BLOCK_H_
#define MINOAN_BLOCKING_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"

namespace minoan {

/// Whether resolution is clean-clean (each KB internally duplicate-free, so
/// only cross-KB pairs are candidate matches) or dirty (any pair may match).
enum class ResolutionMode {
  kDirty = 0,
  kCleanClean = 1,
};

/// One candidate comparison (unordered entity pair, a < b).
struct Comparison {
  EntityId a;
  EntityId b;

  Comparison() : a(kInvalidEntity), b(kInvalidEntity) {}
  Comparison(EntityId x, EntityId y) : a(x < y ? x : y), b(x < y ? y : x) {}

  bool operator==(const Comparison& other) const {
    return a == other.a && b == other.b;
  }
  bool operator<(const Comparison& other) const {
    return a != other.a ? a < other.a : b < other.b;
  }
};

/// The blocks of one collection as a CSR — offsets plus the concatenated
/// sorted entity lists, in emission order — and the inverted entity→blocks
/// index that meta-blocking traverses. Cleaning filters in place and keeps
/// the order.
class BlockCollection {
 public:
  BlockCollection() : offsets_{0} {}

  /// Appends one block: a sorted, deduplicated copy of `entities`. Lists of
  /// fewer than 2 distinct entities are dropped. Invalidates the entity
  /// index.
  void AddBlock(const std::vector<EntityId>& entities);

  size_t num_blocks() const { return offsets_.size() - 1; }

  /// The sorted entities of block `bi`.
  std::span<const EntityId> entities(uint32_t bi) const {
    return std::span<const EntityId>(entities_.data() + offsets_[bi],
                                     offsets_[bi + 1] - offsets_[bi]);
  }
  size_t block_size(uint32_t bi) const {
    return offsets_[bi + 1] - offsets_[bi];
  }

  /// Comparisons block `bi` induces under `mode` (cross-KB pairs only for
  /// clean-clean), ignoring cross-block redundancy.
  uint64_t NumComparisons(uint32_t bi, const EntityCollection& collection,
                          ResolutionMode mode) const;

  /// Aggregate comparisons over all blocks (with cross-block redundancy).
  uint64_t AggregateComparisons(const EntityCollection& collection,
                                ResolutionMode mode) const;

  /// Enumerates the *distinct* comparisons (each unordered pair once, even
  /// when it co-occurs in many blocks) in block order, restricted by `mode`.
  std::vector<Comparison> DistinctComparisons(
      const EntityCollection& collection, ResolutionMode mode) const;

  /// Builds the entity→block-indices CSR over `num_entities` entities.
  /// Lists are sorted by block index.
  void BuildEntityIndex(uint32_t num_entities);
  bool has_entity_index() const { return !index_offsets_.empty(); }

  /// Block indices containing `e` (requires BuildEntityIndex).
  std::span<const uint32_t> BlocksOf(EntityId e) const {
    return std::span<const uint32_t>(
        index_blocks_.data() + index_offsets_[e],
        index_offsets_[e + 1] - index_offsets_[e]);
  }

  /// Keeps exactly the blocks for which `keep(bi)` is true, in order;
  /// invalidates the entity index.
  template <typename KeepFn>
  void FilterInPlace(const KeepFn& keep) {
    std::vector<uint64_t> new_offsets{0};
    uint64_t write = 0;
    for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
      if (!keep(bi)) continue;
      const uint64_t begin = offsets_[bi], end = offsets_[bi + 1];
      // write <= begin: a left shift, which std::copy permits as long as
      // the destination does not start inside the source.
      if (write != begin) {
        std::copy(entities_.begin() + begin, entities_.begin() + end,
                  entities_.begin() + write);
      }
      write += end - begin;
      new_offsets.push_back(write);
    }
    entities_.resize(write);
    offsets_ = std::move(new_offsets);
    index_offsets_.clear();
    index_blocks_.clear();
  }

  /// Replaces the whole block set; invalidates the entity index.
  void Replace(std::vector<uint64_t> offsets, std::vector<EntityId> entities);

 private:
  std::vector<uint64_t> offsets_;   // offsets_[0] == 0, size = blocks + 1
  std::vector<EntityId> entities_;  // concatenated block entity lists
  std::vector<uint64_t> index_offsets_;
  std::vector<uint32_t> index_blocks_;
};

}  // namespace minoan

#endif  // MINOAN_BLOCKING_BLOCK_H_
