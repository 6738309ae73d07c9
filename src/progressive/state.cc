#include "progressive/state.h"

#include <algorithm>

#include "text/similarity.h"

namespace minoan {

ResolutionState::ResolutionState(const EntityCollection& collection,
                                 const ResolutionSource* source,
                                 bool track_values)
    : collection_(&collection),
      source_(source),
      clusters_(0),
      track_values_(track_values) {
  if (collection.num_entities() > 0) {
    AddEntity(static_cast<EntityId>(collection.num_entities() - 1));
  }
}

void ResolutionState::AddEntity(EntityId id) {
  if (id < clusters_.num_elements()) return;
  const size_t old = clusters_.num_elements();
  clusters_.Resize(id + 1);
  if (!track_values_) return;
  values_.resize(id + 1);
  for (size_t e = old; e <= id; ++e) {
    auto& vals = values_[e];
    const EntityDescription& desc = collection_->entity(
        static_cast<EntityId>(e));
    vals.reserve(desc.attributes.size());
    for (const Attribute& attr : desc.attributes) vals.push_back(attr.value);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  }
}

bool ResolutionState::RecordMatch(EntityId a, EntityId b) {
  ++matches_recorded_;
  const uint32_t ra = clusters_.Find(a);
  const uint32_t rb = clusters_.Find(b);
  if (ra == rb) return false;
  if (!clusters_.Union(ra, rb)) return false;
  if (!track_values_) return true;
  const uint32_t root = clusters_.Find(a);
  const uint32_t other = root == ra ? rb : ra;
  // Merge the absorbed profile into the surviving root's profile.
  auto& dst = values_[root];
  auto& src = values_[other];
  std::vector<uint32_t> merged;
  merged.reserve(dst.size() + src.size());
  std::merge(dst.begin(), dst.end(), src.begin(), src.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  dst = std::move(merged);
  src.clear();
  src.shrink_to_fit();
  return true;
}

uint32_t ResolutionState::ValueGain(EntityId a, EntityId b) {
  const auto& va = ClusterValues(a);
  const auto& vb = ClusterValues(b);
  const size_t inter = IntersectionSize(va, vb);
  const size_t merged = va.size() + vb.size() - inter;
  const size_t larger = std::max(va.size(), vb.size());
  return static_cast<uint32_t>(merged - larger);
}

double ResolutionState::MatchedNeighborFraction(EntityId a, EntityId b,
                                                uint32_t cap) {
  const size_t na = NeighborsOf(a).size();
  const size_t nb = NeighborsOf(b).size();
  if (na == 0 || nb == 0) return 0.0;
  const size_t la = std::min<size_t>(na, cap);
  const size_t lb = std::min<size_t>(nb, cap);
  return static_cast<double>(MatchedNeighborPairs(a, b, cap)) /
         static_cast<double>(la * lb);
}

uint32_t ResolutionState::MatchedNeighborPairs(EntityId a, EntityId b,
                                               uint32_t cap) {
  auto na = NeighborsOf(a);
  auto nb = NeighborsOf(b);
  const size_t la = std::min<size_t>(na.size(), cap);
  const size_t lb = std::min<size_t>(nb.size(), cap);
  uint32_t matched = 0;
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      if (na[i] != nb[j] && clusters_.SameSet(na[i], nb[j])) ++matched;
    }
  }
  return matched;
}

}  // namespace minoan
