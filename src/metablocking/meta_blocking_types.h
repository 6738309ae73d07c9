// Copyright 2026 The MinoanER Authors.
// Shared meta-blocking types: weighting/pruning scheme enums and options.

#ifndef MINOAN_METABLOCKING_META_BLOCKING_TYPES_H_
#define MINOAN_METABLOCKING_META_BLOCKING_TYPES_H_

#include <cstdint>
#include <string_view>

#include "blocking/block.h"
#include "extmem/memory_budget.h"
#include "kb/entity.h"

namespace minoan {

/// Edge-weighting schemes (Papadakis et al.).
enum class WeightingScheme {
  kCbs = 0,   ///< Common Blocks: |B_ab|
  kEcbs = 1,  ///< Enhanced CBS: |B_ab| · log(|B|/|B_a|) · log(|B|/|B_b|)
  kJs = 2,    ///< Jaccard of block sets: |B_ab| / (|B_a|+|B_b|-|B_ab|)
  kEjs = 3,   ///< Enhanced JS: JS · log(|V|/deg a) · log(|V|/deg b)
  kArcs = 4,  ///< Aggregate Reciprocal Comparisons: Σ_b∈B_ab 1/||b||
};
inline constexpr uint32_t kNumWeightingSchemes = 5;

/// Pruning schemes.
enum class PruningScheme {
  kWep = 0,  ///< Weighted Edge Pruning: keep edges ≥ global mean weight
  kCep = 1,  ///< Cardinality Edge Pruning: keep global top-K edges
  kWnp = 2,  ///< Weighted Node Pruning: per node, keep edges ≥ local mean
  kCnp = 3,  ///< Cardinality Node Pruning: per node, keep top-k edges
};
inline constexpr uint32_t kNumPruningSchemes = 4;

std::string_view WeightingSchemeName(WeightingScheme scheme);
std::string_view PruningSchemeName(PruningScheme scheme);

/// A retained comparison with its blocking-graph weight.
struct WeightedComparison {
  EntityId a;
  EntityId b;
  double weight;
};

/// Meta-blocking configuration.
struct MetaBlockingOptions {
  WeightingScheme weighting = WeightingScheme::kEcbs;
  PruningScheme pruning = PruningScheme::kWnp;
  /// Node-centric schemes only: retain an edge iff BOTH endpoints retain it
  /// (reciprocal) instead of either (standard).
  bool reciprocal = false;
  ResolutionMode mode = ResolutionMode::kCleanClean;
  /// Pruning parallelism: 1 = run on the calling thread (default), N > 1 =
  /// use a pool of N workers, 0 = hardware concurrency. The retained edge
  /// list is bit-identical for every value (see sharded_prune.h).
  uint32_t num_threads = 1;
  /// External-memory budget for pruning's votes and edges. Pruning runs
  /// one path either way; the budget only decides when a shard spills a
  /// sorted run to a temp file, with a bit-identical retained edge list.
  /// Unset by default (never spills).
  extmem::MemoryBudgetOptions memory;
};

/// Summary counters of one meta-blocking run.
struct MetaBlockingStats {
  uint64_t graph_edges = 0;     // distinct comparisons before pruning
  uint64_t retained_edges = 0;  // after pruning
  double mean_weight = 0.0;     // global mean edge weight
  uint64_t nominations = 0;     // node-centric vote emissions (else 0)
  uint64_t distinct_pairs = 0;  // distinct nominated pairs (else 0)
};

}  // namespace minoan

#endif  // MINOAN_METABLOCKING_META_BLOCKING_TYPES_H_
