// Copyright 2026 The MinoanER Authors.
// Meta-blocking: restructuring a block collection into a pruned comparison
// set.
//
// Token blocking is redundancy-positive: matching descriptions share many
// blocks. Meta-blocking exploits this by viewing blocks as an implicit
// *blocking graph* — nodes are descriptions, edges connect co-occurring
// pairs — weighting each edge by co-occurrence evidence and pruning low
// weight edges. The poster: "meta-blocking prunes repeated comparisons …
// and discards comparisons between descriptions that share few common
// blocks and are thus less likely to match."
//
// The graph is never materialized: edges are streamed per entity from the
// entity-block index with O(1) stamp-array deduplication, exactly the
// structure parallelized in [4] (Efthymiou et al., Parallel meta-blocking);
// see metablocking/sharded_prune.h for the sharded version both overloads
// of MetaBlocking::Prune run on.

#ifndef MINOAN_METABLOCKING_META_BLOCKING_H_
#define MINOAN_METABLOCKING_META_BLOCKING_H_

#include <vector>

#include "blocking/block.h"
#include "kb/collection.h"
#include "metablocking/meta_blocking_types.h"

namespace minoan {

class ThreadPool;

/// Executes weighting + pruning over a block collection. Runs on the
/// calling thread by default; set MetaBlockingOptions::num_threads (or pass
/// a pool) to shard the pruning across workers — the output is bit-identical
/// either way (see sharded_prune.h).
class MetaBlocking {
 public:
  explicit MetaBlocking(MetaBlockingOptions options) : options_(options) {}
  MetaBlocking() : options_{} {}

  /// Prunes the blocking graph of `blocks` (builds its entity index when
  /// missing). Returns retained comparisons sorted by descending weight
  /// (ties broken by pair id for determinism). Spawns a worker pool when
  /// options().num_threads != 1.
  std::vector<WeightedComparison> Prune(BlockCollection& blocks,
                                        const EntityCollection& collection,
                                        MetaBlockingStats* stats = nullptr)
      const;

  /// Same, on a caller-owned pool, so long-lived drivers (the session,
  /// benches) reuse their threads. (Takes a reference, not a pointer, so
  /// `Prune(b, c, nullptr)` stays an unambiguous spelling of the stats-only
  /// overload.)
  std::vector<WeightedComparison> Prune(BlockCollection& blocks,
                                        const EntityCollection& collection,
                                        ThreadPool& pool,
                                        MetaBlockingStats* stats = nullptr)
      const;

  const MetaBlockingOptions& options() const { return options_; }

 private:
  MetaBlockingOptions options_;
};

/// Computes the weight of one specific pair under `scheme`. Point probe:
/// scans only a's blocks for b (BlockingGraphView::PairWeight) instead of
/// materializing a's full neighborhood — still O(Σ_{β ∈ B_a} |β|) worst
/// case because every common block must be counted, but with early exit per
/// block and no scratch allocation. View construction itself is O(|blocks|)
/// (plus a full degree pass for EJS); per-candidate callers should hold one
/// view and call PairWeight directly.
double ComputePairWeight(BlockCollection& blocks,
                         const EntityCollection& collection,
                         WeightingScheme scheme, ResolutionMode mode,
                         EntityId a, EntityId b);

/// Sorts comparisons by (weight desc, pair id asc) — the canonical
/// deterministic order used across the library.
void SortByWeightDescending(std::vector<WeightedComparison>& comparisons);

}  // namespace minoan

#endif  // MINOAN_METABLOCKING_META_BLOCKING_H_
