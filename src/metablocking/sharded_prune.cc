#include "metablocking/sharded_prune.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "extmem/shuffle.h"
#include "metablocking/meta_blocking.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/topk.h"

namespace minoan {
namespace {

/// Deterministic strict-weak order: higher weight first, then smaller pair.
struct EdgeRank {
  double weight;
  uint64_t key;
  bool operator<(const EdgeRank& o) const {
    if (weight != o.weight) return weight < o.weight;
    return key > o.key;
  }
};

/// Order-fixed partial aggregate of one entity chunk.
struct ChunkPartial {
  double weight_sum = 0.0;
  uint64_t edges = 0;
};

}  // namespace

std::vector<WeightedComparison> ShardedPrune(const BlockingGraphView& view,
                                             const MetaBlockingOptions& options,
                                             ThreadPool* pool,
                                             MetaBlockingStats* stats) {
  const uint32_t n = view.collection().num_entities();
  const size_t num_chunks =
      (static_cast<size_t>(n) + kPruneChunkEntities - 1) / kPruneChunkEntities;
  const auto chunk_range = [n](size_t c) {
    const EntityId begin = static_cast<EntityId>(c * kPruneChunkEntities);
    const EntityId end = static_cast<EntityId>(
        std::min<size_t>(n, (c + 1) * kPruneChunkEntities));
    return std::pair<EntityId, EntityId>(begin, end);
  };

  std::vector<WeightedComparison> retained;
  uint64_t graph_edges = 0;
  double weight_sum = 0.0;
  uint64_t nominations = 0;
  uint64_t distinct_pairs = 0;

  // Drains the first `limit` edges of a one-shard edge shuffle, which
  // yields them in the canonical (weight desc, pair asc) order.
  const auto take_ranked =
      [&retained](extmem::ShardedShuffle<extmem::RankedPair>& shuffle,
                  uint64_t limit) {
        shuffle.Finish([&](uint32_t, extmem::Shard<extmem::RankedPair>& shard) {
          retained.reserve(std::min(limit, shard.records()));
          for (const extmem::RankedPair* edge = nullptr;
               retained.size() < limit && (edge = shard.Next()) != nullptr;) {
            retained.push_back({PairKeyFirst(edge->pair),
                                PairKeySecond(edge->pair), edge->weight});
          }
        });
      };

  switch (options.pruning) {
    case PruningScheme::kWep: {
      // Pass 1: per-chunk partial sums, folded in chunk order so the global
      // mean is one fixed floating-point reduction for every thread count.
      std::vector<ChunkPartial> partials(num_chunks);
      RunPoolTasks(pool, num_chunks, [&](size_t c) {
        NeighborScratch& scratch = TlsNeighborScratch(n);
        ChunkPartial partial;
        const auto [begin, end] = chunk_range(c);
        for (EntityId e = begin; e < end; ++e) {
          view.ForNeighbors(scratch, e, /*only_greater=*/true,
                            [&](EntityId nb, uint32_t common, double arcs) {
                              partial.weight_sum +=
                                  view.EdgeWeight(e, nb, common, arcs);
                              ++partial.edges;
                            });
        }
        partials[c] = partial;
      });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      const double mean = graph_edges > 0
                              ? weight_sum / static_cast<double>(graph_edges)
                              : 0.0;
      // Pass 2: edges at or above the mean go through one shard, which
      // yields them in the canonical (weight desc, pair asc) order.
      extmem::ShardedShuffle<extmem::RankedPair> shuffle(pool, options.memory,
                                                         1);
      shuffle.Scatter(
          n, kPruneChunkEntities,
          [&](size_t /*c*/, size_t begin, size_t end, const auto& route) {
            NeighborScratch& scratch = TlsNeighborScratch(n);
            for (EntityId e = static_cast<EntityId>(begin);
                 e < static_cast<EntityId>(end); ++e) {
              view.ForNeighbors(
                  scratch, e, true,
                  [&](EntityId nb, uint32_t common, double arcs) {
                    const double w = view.EdgeWeight(e, nb, common, arcs);
                    if (w >= mean) {
                      route(0, extmem::RankedPair{w, PairKey(e, nb)});
                    }
                  });
            }
          });
      take_ranked(shuffle, std::numeric_limits<uint64_t>::max());
      break;
    }
    case PruningScheme::kCep: {
      // K = half the total block assignments (BC/2, Papadakis). Each chunk
      // keeps its own top-K; the chunks' survivors go through one shard,
      // whose first K records in the canonical order are the global top-K.
      // The (weight, pair) order is total, so the selected set does not
      // depend on how the edges were split.
      const uint64_t k =
          std::max<uint64_t>(1, view.total_block_assignments() / 2);
      std::vector<ChunkPartial> partials(num_chunks);
      extmem::ShardedShuffle<extmem::RankedPair> shuffle(pool, options.memory,
                                                         1);
      shuffle.Scatter(
          n, kPruneChunkEntities,
          [&](size_t c, size_t begin, size_t end, const auto& route) {
            NeighborScratch& scratch = TlsNeighborScratch(n);
            ChunkPartial partial;
            TopK<EdgeRank> top(k);
            for (EntityId e = static_cast<EntityId>(begin);
                 e < static_cast<EntityId>(end); ++e) {
              view.ForNeighbors(
                  scratch, e, true,
                  [&](EntityId nb, uint32_t common, double arcs) {
                    const double w = view.EdgeWeight(e, nb, common, arcs);
                    partial.weight_sum += w;
                    ++partial.edges;
                    top.Push(EdgeRank{w, PairKey(e, nb)});
                  });
            }
            for (const EdgeRank& edge : top.TakeSortedDescending()) {
              route(0, extmem::RankedPair{edge.weight, edge.key});
            }
            partials[c] = partial;
          });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      take_ranked(shuffle, k);
      break;
    }
    case PruningScheme::kWnp:
    case PruningScheme::kCnp: {
      // Node-centric: each node nominates edges; an edge survives when
      // nominated by either endpoint (standard) or both (reciprocal).
      // Phase A routes nominations into PairKey-hashed vote shards; phase B
      // aggregates each shard.
      const uint64_t placed = std::max<uint64_t>(
          1, static_cast<uint64_t>(view.num_nodes()));
      const uint64_t cnp_k = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(static_cast<double>(
                                  view.total_block_assignments()) /
                              static_cast<double>(placed))));
      const bool is_wnp = options.pruning == PruningScheme::kWnp;
      const size_t needed = options.reciprocal ? 2 : 1;
      std::vector<ChunkPartial> partials(num_chunks);
      std::vector<std::vector<WeightedComparison>> shard_kept(
          kPruneVoteShards);
      std::vector<std::pair<uint64_t, uint64_t>> shard_counts(
          kPruneVoteShards);

      // Phase A: each chunk's nominations go to PairKey-hashed vote shards.
      extmem::ShardedShuffle<extmem::Vote> shuffle(pool, options.memory,
                                                   kPruneVoteShards);
      shuffle.Scatter(
          n, kPruneChunkEntities,
          [&](size_t c, size_t begin, size_t end, const auto& route) {
            NeighborScratch& scratch = TlsNeighborScratch(n);
            ChunkPartial partial;
            std::vector<std::pair<EntityId, double>> local;
            const auto nominate = [&](EntityId e, uint64_t key, double w) {
              route(static_cast<uint32_t>(Mix64(key) & (kPruneVoteShards - 1)),
                    extmem::Vote{key, e, w});
            };
            for (EntityId e = static_cast<EntityId>(begin);
                 e < static_cast<EntityId>(end); ++e) {
              local.clear();
              double local_sum = 0.0;
              view.ForNeighbors(
                  scratch, e, /*only_greater=*/false,
                  [&](EntityId nb, uint32_t common, double arcs) {
                    const double w = view.EdgeWeight(e, nb, common, arcs);
                    local.emplace_back(nb, w);
                    local_sum += w;
                  });
              if (local.empty()) continue;
              partial.edges += local.size();  // counted twice; halved below
              partial.weight_sum += local_sum;
              if (is_wnp) {
                const double mean =
                    local_sum / static_cast<double>(local.size());
                for (const auto& [nb, w] : local) {
                  if (w >= mean) nominate(e, PairKey(e, nb), w);
                }
              } else {
                TopK<EdgeRank> top(cnp_k);
                for (const auto& [nb, w] : local) {
                  top.Push(EdgeRank{w, PairKey(e, nb)});
                }
                for (const EdgeRank& edge : top.TakeSortedDescending()) {
                  nominate(e, edge.key, edge.weight);
                }
              }
            }
            partials[c] = partial;
          });

      // Phase B: each shard yields its votes sorted by (pair, nominator),
      // so one pair's votes are adjacent and end with the larger endpoint's
      // — the weight the sequential vote table kept (last writer over an
      // ascending entity scan).
      shuffle.Finish([&](uint32_t s, extmem::Shard<extmem::Vote>& shard) {
        uint64_t votes = 0, pairs = 0;
        const extmem::Vote* vote = shard.Next();
        while (vote != nullptr) {
          const uint64_t key = vote->pair;
          size_t group_votes = 0;
          double last_weight = 0.0;
          for (; vote != nullptr && vote->pair == key; vote = shard.Next()) {
            ++group_votes;
            last_weight = vote->weight;
          }
          votes += group_votes;
          ++pairs;
          if (group_votes >= needed) {
            shard_kept[s].push_back(
                {PairKeyFirst(key), PairKeySecond(key), last_weight});
          }
        }
        shard_counts[s] = {votes, pairs};
      });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      graph_edges /= 2;
      weight_sum /= 2.0;
      static obs::Histogram& shard_votes =
          obs::MetricsRegistry::Default().histogram("prune.shard_votes");
      for (const auto& [votes, pairs] : shard_counts) {
        nominations += votes;
        distinct_pairs += pairs;
        shard_votes.Record(votes);
      }
      retained = FlattenInOrder(shard_kept);
      SortByWeightDescending(retained, pool);
      break;
    }
  }

  // Telemetry once per prune run — all sequential, outside the workers.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    static obs::Counter& chunks = registry.counter("prune.chunks");
    static obs::Counter& edges = registry.counter("prune.graph_edges");
    static obs::Counter& noms = registry.counter("prune.nominations");
    static obs::Counter& kept_edges = registry.counter("prune.retained");
    chunks.Add(num_chunks);
    edges.Add(graph_edges);
    noms.Add(nominations);
    kept_edges.Add(retained.size());
  }
  if (stats) {
    stats->graph_edges = graph_edges;
    stats->retained_edges = retained.size();
    stats->mean_weight =
        graph_edges > 0 ? weight_sum / static_cast<double>(graph_edges) : 0.0;
    stats->nominations = nominations;
    stats->distinct_pairs = distinct_pairs;
  }
  return retained;
}

}  // namespace minoan
