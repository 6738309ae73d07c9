// Copyright 2026 The MinoanER Authors.
// The implicit blocking graph: neighbor streaming and edge weighting.
//
// Read by the sharded pruning core (metablocking/sharded_prune.h) and by
// per-pair weight probes. Each worker owns a private NeighborScratch; the
// view itself is immutable after construction and safe to share across
// threads.

#ifndef MINOAN_METABLOCKING_BLOCKING_GRAPH_H_
#define MINOAN_METABLOCKING_BLOCKING_GRAPH_H_

#include <cstdint>
#include <vector>

#include "blocking/block.h"
#include "kb/collection.h"
#include "metablocking/meta_blocking_types.h"

namespace minoan {

/// Per-thread scratch space for stamp-array neighbor deduplication. Each
/// ForNeighbors call gets a fresh generation stamp, so the arrays never need
/// clearing and repeated passes over the same entity stay correct.
class NeighborScratch {
 public:
  explicit NeighborScratch(uint32_t num_entities)
      : stamp_(num_entities, 0),
        common_(num_entities, 0),
        arcs_(num_entities, 0.0) {}

  std::vector<EntityId>& neighbors() { return neighbors_; }
  std::vector<uint64_t>& stamp() { return stamp_; }
  std::vector<uint32_t>& common() { return common_; }
  std::vector<double>& arcs() { return arcs_; }

  /// Starts a new enumeration; returns its unique stamp value (never 0).
  uint64_t NextGeneration() { return ++generation_; }

  /// Number of entities this scratch was sized for.
  uint32_t size() const { return static_cast<uint32_t>(stamp_.size()); }

 private:
  std::vector<uint64_t> stamp_;
  std::vector<uint32_t> common_;
  std::vector<double> arcs_;
  std::vector<EntityId> neighbors_;
  uint64_t generation_ = 0;
};

class ThreadPool;

/// Immutable view over (blocks, collection) exposing weighted-edge
/// enumeration. Construction precomputes ARCS terms and (for EJS) node
/// degrees; thereafter the view is read-only.
class BlockingGraphView {
 public:
  /// Builds the entity index of `blocks` if missing (the only mutation).
  /// `pool` (optional) parallelizes construction — the ARCS-term scan, the
  /// placed-node count, and (for EJS) the whole-graph degree pass — over
  /// fixed chunks, with results identical to the sequential pass at every
  /// thread count.
  BlockingGraphView(BlockCollection& blocks,
                    const EntityCollection& collection,
                    WeightingScheme weighting, ResolutionMode mode,
                    ThreadPool* pool = nullptr);

  double num_blocks() const { return num_blocks_; }
  double num_nodes() const { return num_nodes_; }
  WeightingScheme weighting() const { return weighting_; }
  ResolutionMode mode() const { return mode_; }
  const EntityCollection& collection() const { return *collection_; }

  /// Weight of edge (a, b) given its common-block count and ARCS sum.
  double EdgeWeight(EntityId a, EntityId b, uint32_t common,
                    double arcs_sum) const;

  /// Calls fn(neighbor, common_blocks, arcs_sum) for each distinct neighbor
  /// of `e` in the blocking graph. With `only_greater`, each undirected edge
  /// is seen exactly once over an ascending scan of e.
  template <typename Fn>
  void ForNeighbors(NeighborScratch& scratch, EntityId e, bool only_greater,
                    const Fn& fn) const {
    auto& stamp = scratch.stamp();
    auto& common = scratch.common();
    auto& arcs = scratch.arcs();
    auto& neighbors = scratch.neighbors();
    const uint64_t generation = scratch.NextGeneration();
    neighbors.clear();
    const bool clean = mode_ == ResolutionMode::kCleanClean;
    for (uint32_t bi : blocks_->BlocksOf(e)) {
      const double arc = arcs_term_[bi];
      for (EntityId n : blocks_->entities(bi)) {
        if (n == e) continue;
        if (only_greater && n < e) continue;
        if (clean && !collection_->CrossKb(e, n)) continue;
        if (stamp[n] != generation) {
          stamp[n] = generation;
          common[n] = 1;
          arcs[n] = arc;
          neighbors.push_back(n);
        } else {
          ++common[n];
          arcs[n] += arc;
        }
      }
    }
    for (EntityId n : neighbors) {
      fn(n, common[n], arcs[n]);
    }
  }

  /// Weight of the single edge (a, b), or 0 when the edge is absent (no
  /// common block; same-KB pair in clean-clean mode). Scans only a's blocks
  /// and tests each for b's membership — O(Σ_{β ∈ B_a} |β|) worst case,
  /// stopping each block scan at the first hit — instead of materializing
  /// a's whole neighborhood the way a ForNeighbors pass would. Needs no
  /// scratch, so point probes stay cheap for per-candidate callers.
  double PairWeight(EntityId a, EntityId b) const;

  /// Total block assignments Σ|b| (the BC quantity of cardinality pruning).
  uint64_t total_block_assignments() const { return total_assignments_; }

 private:
  const BlockCollection* blocks_;
  const EntityCollection* collection_;
  WeightingScheme weighting_;
  ResolutionMode mode_;
  double num_blocks_ = 0;
  double num_nodes_ = 0;
  uint64_t total_assignments_ = 0;
  std::vector<double> arcs_term_;
  std::vector<uint32_t> degree_;  // EJS only
};

/// This thread's NeighborScratch, (re)sized for `num_entities`. Lets pool
/// workers enumerate the graph without per-task allocation; safe because a
/// thread runs one enumeration at a time and generation stamps survive
/// reuse.
NeighborScratch& TlsNeighborScratch(uint32_t num_entities);

}  // namespace minoan

#endif  // MINOAN_METABLOCKING_BLOCKING_GRAPH_H_
