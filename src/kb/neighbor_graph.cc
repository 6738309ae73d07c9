#include "kb/neighbor_graph.h"

#include <algorithm>

namespace minoan {

NeighborGraph::NeighborGraph(const EntityCollection& collection) {
  std::vector<std::pair<EntityId, EntityId>> edges;
  for (const EntityDescription& desc : collection.entities()) {
    for (const Relation& rel : desc.relations) {
      edges.emplace_back(desc.id, rel.target);
    }
  }
  BuildCsr(collection.num_entities(), edges);
}

NeighborGraph::NeighborGraph(
    uint32_t num_entities,
    const std::vector<std::pair<EntityId, EntityId>>& edges) {
  std::vector<std::pair<EntityId, EntityId>> copy = edges;
  BuildCsr(num_entities, copy);
}

void NeighborGraph::BuildCsr(
    uint32_t num_entities, std::vector<std::pair<EntityId, EntityId>>& edges) {
  // Symmetrize, drop self-loops, dedupe.
  const size_t n = edges.size();
  edges.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    edges.emplace_back(edges[i].second, edges[i].first);
  }
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const auto& e) { return e.first == e.second; }),
              edges.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  offsets_.assign(static_cast<size_t>(num_entities) + 1, 0);
  for (const auto& [src, dst] : edges) {
    (void)dst;
    ++offsets_[src + 1];
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  targets_.resize(edges.size());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [src, dst] : edges) {
    targets_[cursor[src]++] = dst;
  }
}

}  // namespace minoan
