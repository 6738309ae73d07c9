// Copyright 2026 The MinoanER Authors.
// Mutable resolution state: clusters, cluster profiles, neighbor bookkeeping,
// and the source the progressive loop reads the corpus through.
//
// The progressive resolver updates this state after every confirmed match;
// benefit estimators read it to score candidate comparisons against the
// *current* partial result — the essence of pay-as-you-go ER.

#ifndef MINOAN_PROGRESSIVE_STATE_H_
#define MINOAN_PROGRESSIVE_STATE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"
#include "matching/union_find.h"

namespace minoan {

/// Where the progressive loop reads the corpus: the neighbor lists its
/// update phase and the relationship-aware benefit models walk, and the
/// profile similarity its matching phase scores. It also hears of every
/// pair slot the loop creates. The batch source is a frozen NeighborGraph
/// plus a SimilarityEvaluator (BatchSource, progressive/resolver.h); the
/// online one is a growable adjacency plus profile views at the current idf
/// (OnlineSource, online/online_resolver.h).
class ResolutionSource {
 public:
  ResolutionSource() = default;
  ResolutionSource(const ResolutionSource&) = delete;
  ResolutionSource& operator=(const ResolutionSource&) = delete;
  virtual ~ResolutionSource() = default;

  /// Neighbors of `e`, empty for an entity the source does not cover. The
  /// update phase reads the first max_neighbors_per_side entries, so the
  /// order is part of the trajectory. Must be safe to call concurrently:
  /// the parallel initial scoring prices slots through it.
  virtual std::span<const EntityId> Neighbors(EntityId e) const = 0;

  /// Profile similarity of (a, b) in [0, 1], without neighbor evidence.
  virtual double Similarity(EntityId a, EntityId b) = 0;

  /// Called once for each pair slot the loop creates (seeds, update-phase
  /// discoveries, ProgressiveResolver::SlotFor), right after creation.
  virtual void OnSlotCreated(uint64_t /*pair*/) {}
};

/// Tracks the partial resolution result during a progressive run.
class ResolutionState {
 public:
  /// `source` (optional, must outlive the state) supplies neighbor lists;
  /// without one the neighbor-based measures read 0. Without
  /// `track_values` the cluster value sets are neither built nor merged,
  /// and ClusterValues/ValueGain must not be called: only the
  /// attribute-completeness benefit model reads them.
  ResolutionState(const EntityCollection& collection,
                  const ResolutionSource* source, bool track_values = true);

  /// Records the match (a, b): merges clusters and cluster profiles.
  /// Returns true when the two were not already in the same cluster.
  bool RecordMatch(EntityId a, EntityId b);

  /// Extends the state to cover entities appended to the collection after
  /// construction (online mode): every id in [previous size, id] becomes a
  /// singleton cluster whose profile is its own attribute values. No-op for
  /// ids already covered.
  void AddEntity(EntityId id);

  bool SameCluster(EntityId a, EntityId b) {
    return clusters_.SameSet(a, b);
  }
  uint32_t ClusterSize(EntityId e) { return clusters_.SetSize(e); }

  /// Sorted distinct attribute-value ids of e's cluster.
  const std::vector<uint32_t>& ClusterValues(EntityId e) {
    assert(track_values_);
    return values_[clusters_.Find(e)];
  }

  /// Number of values the merged cluster of (a, b) would gain relative to
  /// the larger constituent — the attribute-completeness gain of the match.
  uint32_t ValueGain(EntityId a, EntityId b);

  /// Fraction of neighbor pairs (na ∈ N(a), nb ∈ N(b)) already resolved to
  /// the same cluster; 0 when either side has no neighbors. Neighbor lists
  /// are truncated to `cap` entries per side.
  double MatchedNeighborFraction(EntityId a, EntityId b, uint32_t cap);

  /// Count (not fraction) of already-co-clustered neighbor pairs.
  uint32_t MatchedNeighborPairs(EntityId a, EntityId b, uint32_t cap);

  UnionFind& clusters() { return clusters_; }
  uint64_t matches_recorded() const { return matches_recorded_; }

 private:
  std::span<const EntityId> NeighborsOf(EntityId e) const {
    if (source_ == nullptr) return {};
    return source_->Neighbors(e);
  }

  const EntityCollection* collection_;
  const ResolutionSource* source_;  // may be null (no relationship reasoning)
  UnionFind clusters_;
  bool track_values_;
  /// Per current root: sorted distinct value ids of the cluster profile
  /// (empty without track_values_).
  std::vector<std::vector<uint32_t>> values_;
  uint64_t matches_recorded_ = 0;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_STATE_H_
