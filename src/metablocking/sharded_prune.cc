#include "metablocking/sharded_prune.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>

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

/// One node-centric vote: `nominator` kept an edge to the other endpoint of
/// `key`. Sorting by (key, nominator) groups votes per pair with the larger
/// endpoint last — the endpoint whose weight the sequential vote table would
/// have kept (last writer over an ascending entity scan).
struct Nomination {
  uint64_t key;
  EntityId nominator;
  double weight;
  bool operator<(const Nomination& o) const {
    if (key != o.key) return key < o.key;
    return nominator < o.nominator;
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
      if (options.memory.enabled()) {
        // Pass 2, external: surviving edges stream through ONE spilling sink
        // keyed [~weight BE][pair BE]. Every scheme's weight is finite and
        // >= 0 (never -0.0), so the complemented bit pattern orders bytes by
        // weight descending, pair ascending — the SortByWeightDescending
        // order — and the edge list never sits in memory whole. Keys are
        // unique per edge (only_greater emits each pair once), so merge
        // tie-breaks never fire.
        extmem::RunSpilledShuffle(
            pool, n, kPruneChunkEntities, /*num_shards=*/1, options.memory,
            [&](size_t /*c*/, size_t begin, size_t end, const auto& route) {
              NeighborScratch& scratch = TlsNeighborScratch(n);
              std::string record;
              for (EntityId e = static_cast<EntityId>(begin);
                   e < static_cast<EntityId>(end); ++e) {
                view.ForNeighbors(
                    scratch, e, true,
                    [&](EntityId nb, uint32_t common, double arcs) {
                      const double w = view.EdgeWeight(e, nb, common, arcs);
                      if (w < mean) return;
                      record.clear();
                      extmem::AppendU32Le(record, 16);
                      extmem::AppendU64Be(record,
                                          ~std::bit_cast<uint64_t>(w));
                      extmem::AppendU64Be(record, PairKey(e, nb));
                      extmem::AppendU64Le(record, std::bit_cast<uint64_t>(w));
                      route(0, record);
                    });
              }
            },
            [&](uint32_t /*s*/, extmem::ShuffleSource& source) {
              std::string_view record;
              while (source.Next(record)) {
                const uint64_t key = extmem::ReadU64Be(
                    extmem::RecordKey(record).substr(8, 8));
                const double w = std::bit_cast<double>(
                    extmem::ReadU64Le(extmem::RecordPayload(record)));
                retained.push_back(
                    {PairKeyFirst(key), PairKeySecond(key), w});
              }
            });
        break;
      }
      // Pass 2: retain edges at or above the mean, chunk-local then merged.
      std::vector<std::vector<WeightedComparison>> kept(num_chunks);
      RunPoolTasks(pool, num_chunks, [&](size_t c) {
        NeighborScratch& scratch = TlsNeighborScratch(n);
        const auto [begin, end] = chunk_range(c);
        for (EntityId e = begin; e < end; ++e) {
          view.ForNeighbors(scratch, e, true,
                            [&](EntityId nb, uint32_t common, double arcs) {
                              const double w =
                                  view.EdgeWeight(e, nb, common, arcs);
                              if (w >= mean) kept[c].push_back({e, nb, w});
                            });
        }
      });
      retained = FlattenInOrder(kept);
      break;
    }
    case PruningScheme::kCep: {
      // K = half the total block assignments (BC/2, Papadakis). Per-chunk
      // top-K heaps merge into one exact global selection; the (weight, key)
      // total order makes the selected set insertion-order independent.
      const uint64_t k =
          std::max<uint64_t>(1, view.total_block_assignments() / 2);
      std::vector<ChunkPartial> partials(num_chunks);
      if (options.memory.enabled()) {
        // External top-K: ALL edges stream through one spilling sink keyed
        // [~weight BE][pair BE] (weight descending, pair ascending — see the
        // WEP case for the encoding argument); the first K records of the
        // merged stream are exactly the set the in-memory per-chunk heaps
        // select, because both selections use the same (weight, pair) total
        // order. Peak memory is the spill budget + K retained edges, not
        // the full edge list.
        extmem::RunSpilledShuffle(
            pool, n, kPruneChunkEntities, /*num_shards=*/1, options.memory,
            [&](size_t c, size_t begin, size_t end, const auto& route) {
              NeighborScratch& scratch = TlsNeighborScratch(n);
              ChunkPartial partial;
              std::string record;
              for (EntityId e = static_cast<EntityId>(begin);
                   e < static_cast<EntityId>(end); ++e) {
                view.ForNeighbors(
                    scratch, e, true,
                    [&](EntityId nb, uint32_t common, double arcs) {
                      const double w = view.EdgeWeight(e, nb, common, arcs);
                      partial.weight_sum += w;
                      ++partial.edges;
                      record.clear();
                      extmem::AppendU32Le(record, 16);
                      extmem::AppendU64Be(record,
                                          ~std::bit_cast<uint64_t>(w));
                      extmem::AppendU64Be(record, PairKey(e, nb));
                      extmem::AppendU64Le(record, std::bit_cast<uint64_t>(w));
                      route(0, record);
                    });
              }
              partials[c] = partial;
            },
            [&](uint32_t /*s*/, extmem::ShuffleSource& source) {
              std::string_view record;
              while (retained.size() < k && source.Next(record)) {
                const uint64_t key = extmem::ReadU64Be(
                    extmem::RecordKey(record).substr(8, 8));
                const double w = std::bit_cast<double>(
                    extmem::ReadU64Le(extmem::RecordPayload(record)));
                retained.push_back(
                    {PairKeyFirst(key), PairKeySecond(key), w});
              }
            });
        for (const ChunkPartial& p : partials) {
          weight_sum += p.weight_sum;
          graph_edges += p.edges;
        }
        break;
      }
      std::vector<TopK<EdgeRank>> tops(num_chunks, TopK<EdgeRank>(k));
      RunPoolTasks(pool, num_chunks, [&](size_t c) {
        NeighborScratch& scratch = TlsNeighborScratch(n);
        ChunkPartial partial;
        const auto [begin, end] = chunk_range(c);
        for (EntityId e = begin; e < end; ++e) {
          view.ForNeighbors(scratch, e, true,
                            [&](EntityId nb, uint32_t common, double arcs) {
                              const double w =
                                  view.EdgeWeight(e, nb, common, arcs);
                              partial.weight_sum += w;
                              ++partial.edges;
                              tops[c].Push(EdgeRank{w, PairKey(e, nb)});
                            });
        }
        partials[c] = partial;
      });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      TopK<EdgeRank> top(k);
      for (TopK<EdgeRank>& chunk_top : tops) {
        for (const EdgeRank& edge : chunk_top.TakeSortedDescending()) {
          top.Push(edge);
        }
      }
      for (const EdgeRank& edge : top.TakeSortedDescending()) {
        retained.push_back(
            {PairKeyFirst(edge.key), PairKeySecond(edge.key), edge.weight});
      }
      break;
    }
    case PruningScheme::kWnp:
    case PruningScheme::kCnp: {
      // Node-centric: each node nominates edges; an edge survives when
      // nominated by either endpoint (standard) or both (reciprocal).
      // Phase A routes nominations into PairKey-hashed shards (chunk-local
      // buffers, no shared state); phase B aggregates each shard.
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

      // The per-entity nomination scan, shared by the in-memory and the
      // spilled phase A. `nominate(e, key, w)` routes one vote.
      const auto scan_chunk = [&](size_t c, const auto& nominate) {
        NeighborScratch& scratch = TlsNeighborScratch(n);
        ChunkPartial partial;
        std::vector<std::pair<EntityId, double>> local;
        const auto [begin, end] = chunk_range(c);
        for (EntityId e = begin; e < end; ++e) {
          local.clear();
          double local_sum = 0.0;
          view.ForNeighbors(scratch, e, /*only_greater=*/false,
                            [&](EntityId nb, uint32_t common, double arcs) {
                              const double w =
                                  view.EdgeWeight(e, nb, common, arcs);
                              local.emplace_back(nb, w);
                              local_sum += w;
                            });
          if (local.empty()) continue;
          partial.edges += local.size();  // counted twice; halved below
          partial.weight_sum += local_sum;
          if (is_wnp) {
            const double mean = local_sum / static_cast<double>(local.size());
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
      };
      // One pair's complete vote set is a (key, nominator)-sorted run whose
      // last entry is the larger endpoint — the endpoint whose weight the
      // sequential vote table kept. `flush_group` applies the retention
      // rule to one such run.
      const auto flush_group = [&](size_t s, uint64_t key, size_t group_votes,
                                   double last_weight, uint64_t& pairs) {
        ++pairs;
        if (group_votes >= needed) {
          shard_kept[s].push_back(
              {PairKeyFirst(key), PairKeySecond(key), last_weight});
        }
      };

      if (options.memory.enabled()) {
        // External-memory phase A/B: nominations stream through spilling
        // vote-shard sinks as (pair, nominator)-keyed records; each shard's
        // merged stream is exactly the sorted vote array the in-memory path
        // aggregates, so the retained edges carry identical bytes.
        extmem::RunSpilledShuffle(
            pool, n, kPruneChunkEntities, kPruneVoteShards, options.memory,
            [&](size_t c, size_t /*begin*/, size_t /*end*/,
                const auto& route) {
              std::string record;
              scan_chunk(c, [&](EntityId e, uint64_t key, double w) {
                record.clear();
                extmem::AppendU32Le(record, 12);  // key: pair + nominator
                extmem::AppendU64Be(record, key);
                extmem::AppendU32Be(record, e);
                extmem::AppendU64Le(record, std::bit_cast<uint64_t>(w));
                route(static_cast<uint32_t>(Mix64(key) &
                                            (kPruneVoteShards - 1)),
                      record);
              });
            },
            [&](uint32_t s, extmem::ShuffleSource& source) {
              std::string_view record;
              uint64_t votes = 0, pairs = 0;
              uint64_t group_key = 0;
              size_t group_votes = 0;
              double last_weight = 0.0;
              bool open = false;
              while (source.Next(record)) {
                ++votes;
                const uint64_t key = extmem::ReadU64Be(
                    extmem::RecordKey(record).substr(0, 8));
                if (open && key != group_key) {
                  flush_group(s, group_key, group_votes, last_weight, pairs);
                  group_votes = 0;
                }
                group_key = key;
                open = true;
                ++group_votes;
                last_weight = std::bit_cast<double>(
                    extmem::ReadU64Le(extmem::RecordPayload(record)));
              }
              if (open) {
                flush_group(s, group_key, group_votes, last_weight, pairs);
              }
              shard_counts[s] = {votes, pairs};
            });
      } else {
        // In-memory phase A: chunk-local shard buffers, no shared state.
        std::vector<std::vector<std::vector<Nomination>>> chunk_noms(
            num_chunks,
            std::vector<std::vector<Nomination>>(kPruneVoteShards));
        RunPoolTasks(pool, num_chunks, [&](size_t c) {
          auto& shards = chunk_noms[c];
          scan_chunk(c, [&shards](EntityId e, uint64_t key, double w) {
            shards[Mix64(key) & (kPruneVoteShards - 1)].push_back(
                Nomination{key, e, w});
          });
        });

        // In-memory phase B: per-shard vote aggregation over the gathered
        // (key, nominator)-sorted array.
        RunPoolTasks(pool, kPruneVoteShards, [&](size_t s) {
          std::vector<Nomination> votes;
          size_t total = 0;
          for (const auto& chunk : chunk_noms) total += chunk[s].size();
          votes.reserve(total);
          for (const auto& chunk : chunk_noms) {
            votes.insert(votes.end(), chunk[s].begin(), chunk[s].end());
          }
          std::sort(votes.begin(), votes.end());
          uint64_t pairs = 0;
          size_t i = 0;
          while (i < votes.size()) {
            size_t j = i;
            while (j < votes.size() && votes[j].key == votes[i].key) ++j;
            flush_group(s, votes[i].key, j - i, votes[j - 1].weight, pairs);
            i = j;
          }
          shard_counts[s] = {votes.size(), pairs};
        });
      }
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
      break;
    }
  }

  SortByWeightDescending(retained, pool);
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
