// Copyright 2026 The MinoanER Authors.
// Block-cleaning operators: purging (drop oversized blocks) and filtering
// (keep each entity only in its smallest blocks).
//
// Both are block-level precision boosters that run between blocking and
// meta-blocking. They discard the blocks that contribute the bulk of the
// comparisons but almost none of the matching pairs, at negligible recall
// cost — the standard pipeline of block-based ER over heterogeneous data.
//
// Both operators run their scans on the chunked-pool pattern
// (util/thread_pool.h RunChunkedTasks): pass a pool and the size histogram
// and the per-entity membership filtering fan out over fixed-size chunks;
// pass nullptr and the same code runs inline. The cleaned block collection
// is byte-identical at every thread count.

#ifndef MINOAN_BLOCKING_BLOCK_CLEANING_H_
#define MINOAN_BLOCKING_BLOCK_CLEANING_H_

#include "blocking/block.h"

namespace minoan {

class ThreadPool;

/// Comparison-based automatic purging (Papadakis et al.): scans distinct
/// block sizes in ascending order tracking the ratio of cumulative
/// comparisons to cumulative block assignments, and purges every block
/// larger than the last size at which the ratio grew by less than
/// `smoothing` (default 1.025). Intuition: once each extra block assignment
/// starts buying disproportionately many comparisons, the remaining
/// (oversized) blocks are noise.
void AutoPurge(BlockCollection& blocks, const EntityCollection& collection,
               ResolutionMode mode, double smoothing = 1.025,
               ThreadPool* pool = nullptr);

/// Block filtering (Papadakis et al.): each entity retains only the
/// ceil(ratio * |blocks(e)|) smallest of its blocks; blocks are then rebuilt
/// from the retained memberships. `ratio` in (0, 1]; 0.8 is the literature
/// default. Blocks are ranked by size alone, so unlike AutoPurge it needs
/// no resolution mode.
void FilterBlocks(BlockCollection& blocks, double ratio,
                  const EntityCollection& collection,
                  ThreadPool* pool = nullptr);

}  // namespace minoan

#endif  // MINOAN_BLOCKING_BLOCK_CLEANING_H_
