#include "blocking/block_cleaning.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Blocks (or entities) per cleaning work chunk. A constant — chunk
/// boundaries fix the merge order, so they must not move with the worker
/// count.
constexpr size_t kCleaningChunk = 256;

}  // namespace

void AutoPurge(BlockCollection& blocks, const EntityCollection& collection,
               ResolutionMode mode, double smoothing, ThreadPool* pool) {
  // Per distinct block size: total comparisons and total block assignments,
  // as a size -> (cmp, assign) map — counted per block chunk and summed in
  // chunk order (integer sums, identical at every thread count).
  std::vector<std::map<uint64_t, std::pair<uint64_t, uint64_t>>> chunk_sizes(
      NumChunks(blocks.num_blocks(), kCleaningChunk));
  RunChunkedTasks(pool, blocks.num_blocks(), kCleaningChunk,
                  [&](size_t c, size_t begin, size_t end) {
                    for (size_t i = begin; i < end; ++i) {
                      const uint32_t bi = static_cast<uint32_t>(i);
                      auto& [cmp, assign] =
                          chunk_sizes[c][blocks.block_size(bi)];
                      cmp += blocks.NumComparisons(bi, collection, mode);
                      assign += blocks.block_size(bi);
                    }
                  });
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> by_size;
  for (const auto& local : chunk_sizes) {
    for (const auto& [size, totals] : local) {
      auto& [cmp, assign] = by_size[size];
      cmp += totals.first;
      assign += totals.second;
    }
  }
  // Ascending scan of the cumulative comparisons-per-assignment ratio. The
  // threshold is set below the LAST size at which the ratio jumps by more
  // than `smoothing` — the oversized blocks dominate cumulative comparisons,
  // so the last jump marks where they begin. (Papadakis et al.; only the
  // few giant blocks are purged, small blocks always survive.)
  uint64_t max_keep_size = by_size.empty() ? 0 : by_size.rbegin()->first;
  uint64_t cum_cmp = 0, cum_assign = 0;
  double prev_ratio = -1.0;
  uint64_t prev_size = 0;
  for (const auto& [size, totals] : by_size) {
    cum_cmp += totals.first;
    cum_assign += totals.second;
    if (cum_assign == 0) continue;
    const double ratio =
        static_cast<double>(cum_cmp) / static_cast<double>(cum_assign);
    if (prev_ratio >= 0.0 && ratio > smoothing * prev_ratio) {
      max_keep_size = prev_size;  // last jump wins
    }
    prev_ratio = ratio;
    prev_size = size;
  }
  if (max_keep_size == 0 && !by_size.empty()) {
    max_keep_size = by_size.begin()->first;
  }
  blocks.FilterInPlace(
      [&](uint32_t bi) { return blocks.block_size(bi) <= max_keep_size; });
}

void FilterBlocks(BlockCollection& blocks, double ratio,
                  const EntityCollection& collection, ThreadPool* pool) {
  if (ratio <= 0.0 || ratio > 1.0) ratio = 1.0;

  // entity -> indices of its blocks, ascending (a cheap linear scatter;
  // the sort-heavy per-entity pass below is the part worth fanning out).
  const uint32_t n = collection.num_entities();
  std::vector<std::vector<uint32_t>> memberships(n);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    for (EntityId e : blocks.entities(bi)) {
      memberships[e].push_back(bi);
    }
  }
  // Per entity (chunked): sort its blocks by (size, index) ascending and
  // keep the smallest ceil(ratio · |blocks|), collected as chunk-local
  // (block, entity) pairs.
  std::vector<std::vector<std::pair<uint32_t, EntityId>>> chunk_keeps(
      NumChunks(n, kCleaningChunk));
  RunChunkedTasks(pool, n, kCleaningChunk, [&](size_t c, size_t begin,
                                               size_t end) {
    for (uint32_t e = static_cast<uint32_t>(begin);
         e < static_cast<uint32_t>(end); ++e) {
      auto& mine = memberships[e];
      if (mine.empty()) continue;
      std::sort(mine.begin(), mine.end(), [&](uint32_t x, uint32_t y) {
        const size_t sx = blocks.block_size(x), sy = blocks.block_size(y);
        return sx != sy ? sx < sy : x < y;
      });
      const size_t keep = static_cast<size_t>(
          std::max(1.0, std::ceil(ratio * static_cast<double>(mine.size()))));
      for (size_t i = 0; i < std::min(keep, mine.size()); ++i) {
        chunk_keeps[c].emplace_back(mine[i], e);
      }
    }
  });
  // Scatter in chunk order: entities ascend across (and within) chunks, so
  // each retained list comes out in the sequential ascending-entity order.
  std::vector<std::vector<EntityId>> retained(blocks.num_blocks());
  for (auto& chunk : chunk_keeps) {
    for (const auto& [bi, e] : chunk) retained[bi].push_back(e);
    chunk.clear();
    chunk.shrink_to_fit();
  }
  // Rebuild the surviving blocks, in block order, into a fresh CSR.
  std::vector<uint64_t> new_offsets{0};
  std::vector<EntityId> new_entities;
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    auto& kept = retained[bi];
    if (kept.size() < 2) continue;
    std::sort(kept.begin(), kept.end());
    new_entities.insert(new_entities.end(), kept.begin(), kept.end());
    new_offsets.push_back(new_entities.size());
  }
  blocks.Replace(std::move(new_offsets), std::move(new_entities));
}

}  // namespace minoan
