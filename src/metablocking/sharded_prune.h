// Copyright 2026 The MinoanER Authors.
// The sharded pruning core: the one implementation of WEP/CEP/WNP/CNP behind
// MetaBlocking::Prune, with or without a pool and a memory budget.
//
// Entities are dealt to workers in fixed-size chunks (constant, independent
// of the worker count) so every floating-point partial aggregate folds in
// the same order no matter how many threads run. Node-centric nominations
// are routed into a fixed number of shards by PairKey hash; each shard sorts
// its nominations by (pair, nominating entity) before aggregating, which
// reproduces the sequential vote-table semantics (the larger endpoint's
// weight wins when both nominate). The net guarantee: the retained edge list
// is bit-identical for every thread count, including the inline (no pool)
// path.

#ifndef MINOAN_METABLOCKING_SHARDED_PRUNE_H_
#define MINOAN_METABLOCKING_SHARDED_PRUNE_H_

#include <vector>

#include "metablocking/blocking_graph.h"
#include "metablocking/meta_blocking_types.h"
#include "util/thread_pool.h"

namespace minoan {

/// Entities per work chunk. A constant (never derived from the pool size):
/// chunk boundaries define the floating-point reduction order, so they must
/// not move when the thread count changes.
inline constexpr uint32_t kPruneChunkEntities = 256;

/// Vote-table shards for the node-centric schemes (power of two).
inline constexpr uint32_t kPruneVoteShards = 64;

/// Prunes the blocking graph of `view` under `options`, running chunk and
/// shard tasks on `pool` (nullptr = inline on the calling thread). Returns
/// retained comparisons in the canonical order of SortByWeightDescending;
/// the result is bit-identical across pool sizes.
std::vector<WeightedComparison> ShardedPrune(const BlockingGraphView& view,
                                             const MetaBlockingOptions& options,
                                             ThreadPool* pool,
                                             MetaBlockingStats* stats =
                                                 nullptr);

}  // namespace minoan

#endif  // MINOAN_METABLOCKING_SHARDED_PRUNE_H_
