// Copyright 2026 The MinoanER Authors.
// The sharded pruning core: the one implementation of WEP/CEP/WNP/CNP behind
// MetaBlocking::Prune, with or without a pool and a memory budget.
//
// Entities are dealt to workers in fixed-size chunks (constant, independent
// of the worker count) so every floating-point partial aggregate folds in
// the same order no matter how many threads run. Votes and edges go through
// the shard engine (extmem/shuffle.h), one typed path whatever the budget:
//   * node-centric (WNP/CNP) nominations go to a fixed number of shards by
//     PairKey hash; each shard yields them sorted by (pair, nominating
//     entity), which reproduces the sequential vote-table semantics (the
//     larger endpoint's weight wins when both nominate). The retained edges
//     then take the canonical (weight desc, pair asc) order in one sort that
//     runs on the pool (ParallelSort);
//   * edge-centric (WEP/CEP) survivors go through one shard that yields
//     them in that canonical order directly (CEP keeps each chunk's top-K
//     first and takes the first K).
// A memory budget only decides when a shard writes a sorted run to disk.
// The net guarantee: the retained edge list is bit-identical for every
// thread count and every budget, including the inline (no pool) path.

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
/// retained comparisons in the canonical order of SortByWeightDescending,
/// whose sort also runs on `pool` (a total order, so its result does not
/// depend on the pool); the result is bit-identical across pool sizes.
std::vector<WeightedComparison> ShardedPrune(const BlockingGraphView& view,
                                             const MetaBlockingOptions& options,
                                             ThreadPool* pool,
                                             MetaBlockingStats* stats =
                                                 nullptr);

}  // namespace minoan

#endif  // MINOAN_METABLOCKING_SHARDED_PRUNE_H_
