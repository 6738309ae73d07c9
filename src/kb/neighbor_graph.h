// Copyright 2026 The MinoanER Authors.
// The entity neighbor graph.
//
// The progressive update phase treats a confirmed match (a, b) as similarity
// evidence for pairs of *neighbors* of a and b — the descriptions they link
// to through object properties. This class freezes the relation edges of an
// EntityCollection into a compact CSR adjacency (undirected, deduplicated)
// for O(1)-amortized neighbor enumeration.

#ifndef MINOAN_KB_NEIGHBOR_GRAPH_H_
#define MINOAN_KB_NEIGHBOR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"

namespace minoan {

/// Immutable CSR adjacency over entity ids.
class NeighborGraph {
 public:
  /// Builds the undirected graph from the collection's relation edges
  /// (both directions inserted, duplicates and self-loops removed).
  explicit NeighborGraph(const EntityCollection& collection);

  /// Builds from explicit edges (used by tests and the generator).
  NeighborGraph(uint32_t num_entities,
                const std::vector<std::pair<EntityId, EntityId>>& edges);

  uint32_t num_entities() const {
    return static_cast<uint32_t>(offsets_.size()) - 1;
  }
  uint64_t num_edges() const { return targets_.size() / 2; }

  /// Neighbors of `id` (sorted ascending).
  std::span<const EntityId> Neighbors(EntityId id) const {
    return std::span<const EntityId>(targets_.data() + offsets_[id],
                                     offsets_[id + 1] - offsets_[id]);
  }

 private:
  void BuildCsr(uint32_t num_entities,
                std::vector<std::pair<EntityId, EntityId>>& edges);

  std::vector<uint64_t> offsets_;  // size = num_entities + 1
  std::vector<EntityId> targets_;
};

}  // namespace minoan

#endif  // MINOAN_KB_NEIGHBOR_GRAPH_H_
