#include "metablocking/meta_blocking.h"

#include <span>

#include "metablocking/blocking_graph.h"
#include "metablocking/sharded_prune.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace minoan {

std::string_view WeightingSchemeName(WeightingScheme scheme) {
  switch (scheme) {
    case WeightingScheme::kCbs:
      return "CBS";
    case WeightingScheme::kEcbs:
      return "ECBS";
    case WeightingScheme::kJs:
      return "JS";
    case WeightingScheme::kEjs:
      return "EJS";
    case WeightingScheme::kArcs:
      return "ARCS";
  }
  return "?";
}

std::string_view PruningSchemeName(PruningScheme scheme) {
  switch (scheme) {
    case PruningScheme::kWep:
      return "WEP";
    case PruningScheme::kCep:
      return "CEP";
    case PruningScheme::kWnp:
      return "WNP";
    case PruningScheme::kCnp:
      return "CNP";
  }
  return "?";
}

void SortByWeightDescending(std::span<WeightedComparison> comparisons,
                            ThreadPool* pool) {
  ParallelSort(pool, comparisons,
               [](const WeightedComparison& x, const WeightedComparison& y) {
                 if (x.weight != y.weight) return x.weight > y.weight;
                 return PairKey(x.a, x.b) < PairKey(y.a, y.b);
               });
}

std::vector<WeightedComparison> MetaBlocking::Prune(
    BlockCollection& blocks, const EntityCollection& collection,
    MetaBlockingStats* stats) const {
  const uint32_t threads = ResolveThreadCount(options_.num_threads);
  if (threads <= 1) {
    const BlockingGraphView view(blocks, collection, options_.weighting,
                                 options_.mode);
    return ShardedPrune(view, options_, nullptr, stats);
  }
  ThreadPool pool(threads);
  return Prune(blocks, collection, pool, stats);
}

std::vector<WeightedComparison> MetaBlocking::Prune(
    BlockCollection& blocks, const EntityCollection& collection,
    ThreadPool& pool, MetaBlockingStats* stats) const {
  const BlockingGraphView view(blocks, collection, options_.weighting,
                               options_.mode, &pool);
  return ShardedPrune(view, options_, &pool, stats);
}

double ComputePairWeight(BlockCollection& blocks,
                         const EntityCollection& collection,
                         WeightingScheme scheme, ResolutionMode mode,
                         EntityId a, EntityId b) {
  const BlockingGraphView view(blocks, collection, scheme, mode);
  return view.PairWeight(a, b);
}

}  // namespace minoan
