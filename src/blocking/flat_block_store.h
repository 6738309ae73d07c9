// Copyright 2026 The MinoanER Authors.
// Former names of the block store and its cleaning calls, kept only because
// the benchmark harness (perfbench/harness.cc) still spells them.
// BlockCollection is the one block store; new code must not use these.

#ifndef MINOAN_BLOCKING_FLAT_BLOCK_STORE_H_
#define MINOAN_BLOCKING_FLAT_BLOCK_STORE_H_

#include "blocking/block.h"
#include "blocking/block_cleaning.h"
#include "blocking/blocking_method.h"

namespace minoan {

using FlatBlockStore = BlockCollection;
using FlatStoreSink = BlockCollectionSink;

inline void AutoPurgeFlat(BlockCollection& blocks,
                          const EntityCollection& collection,
                          ResolutionMode mode, double smoothing = 1.025,
                          ThreadPool* pool = nullptr) {
  AutoPurge(blocks, collection, mode, smoothing, pool);
}

inline void FilterBlocksFlat(BlockCollection& blocks, double ratio,
                             const EntityCollection& collection,
                             ResolutionMode /*mode*/,
                             ThreadPool* pool = nullptr) {
  FilterBlocks(blocks, ratio, collection, pool);
}

}  // namespace minoan

#endif  // MINOAN_BLOCKING_FLAT_BLOCK_STORE_H_
