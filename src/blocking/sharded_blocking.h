// Copyright 2026 The MinoanER Authors.
// The sharded postings core: deterministic parallel inverted-index
// construction shared by every batch blocking method.
//
// This is the front-of-pipeline counterpart of metablocking/sharded_prune.h:
// entities are dealt to workers in fixed-size chunks (constant, independent
// of the worker count), each chunk emits its (key, entity) pairs into a
// fixed number of key-hashed shards, and each shard merges its pairs with a
// stable sort — so equal keys keep chunk order, which IS the sequential scan
// order. A final canonical sort by key yields postings that are
// bit-identical for every thread count, including the inline (no pool)
// path.
//
// With a MemoryBudgetOptions the shard merge runs on the external-memory
// shuffle engine (extmem/shuffle.h): emissions stream through bounded
// per-shard buffers that spill sorted runs to temp files, and the k-way
// merge reader reproduces the exact stable order the in-memory path sorts
// into — the postings are byte-identical with and without spilling, and
// reach the caller one at a time either way.

#ifndef MINOAN_BLOCKING_SHARDED_BLOCKING_H_
#define MINOAN_BLOCKING_SHARDED_BLOCKING_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "extmem/postings_stream.h"
#include "extmem/shuffle.h"
#include "kb/entity.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace minoan {

/// Entities per blocking work chunk. A constant (never derived from the
/// pool size): chunk boundaries define the per-key emission order, so they
/// must not move when the thread count changes.
inline constexpr uint32_t kBlockingChunkEntities = 256;

/// Key-hashed merge shards (power of two, at most 256 — shard ids travel
/// as uint8_t). The shard of a key is a pure function of the key, so the
/// grouping is thread-count independent.
inline constexpr uint32_t kBlockingMergeShards = 64;
static_assert(kBlockingMergeShards <= 256 &&
              (kBlockingMergeShards & (kBlockingMergeShards - 1)) == 0);

/// One merged posting: a blocking key and every entity that emitted it, in
/// sequential scan order (ascending entity id; duplicates preserved when a
/// method emits the same key twice for one entity — BlockCollection's
/// AddBlock dedups downstream, but size filters see the raw count exactly
/// like the sequential implementations did).
template <typename Key>
struct KeyedPosting {
  Key key;
  std::vector<EntityId> entities;
};

/// The budgeted path of BuildShardedPostings: the merged postings reach
/// `consume(key, entities)` one at a time in the exact global key order
/// the in-memory path sorts into, without ever holding more than one
/// posting (plus the bounded shard sink buffers) in memory. Emissions
/// stream through the spill engine's shard sinks; the finished shards are
/// k-way-merged by key bytes (keys are shard-disjoint, so the cross-shard
/// merge IS the global key order). `entities` is scratch owned by the loop;
/// consume may steal or mutate it. Counter semantics (blocking.chunks /
/// emissions / postings) match the in-memory path.
template <typename Key, typename EmitFn, typename HashFn, typename ConsumeFn>
void StreamShardedPostings(uint32_t num_entities, ThreadPool* pool,
                           const EmitFn& emit, const HashFn& hash,
                           const extmem::MemoryBudgetOptions& memory,
                           const ConsumeFn& consume) {
  static obs::Counter& chunks_counter =
      obs::MetricsRegistry::Default().counter("blocking.chunks");
  static obs::Counter& emissions_counter =
      obs::MetricsRegistry::Default().counter("blocking.emissions");
  static obs::Counter& postings_counter =
      obs::MetricsRegistry::Default().counter("blocking.postings");
  chunks_counter.Add(NumChunks(num_entities, kBlockingChunkEntities));

  extmem::MergedShuffle shuffle(memory, kBlockingMergeShards);
  extmem::ScatterIntoSinks(
      pool, num_entities, kBlockingChunkEntities, kBlockingMergeShards,
      [&](size_t /*chunk*/, size_t begin, size_t end, const auto& route) {
        std::vector<Key> keys;
        std::string record;
        uint64_t emitted = 0;
        for (EntityId e = static_cast<EntityId>(begin);
             e < static_cast<EntityId>(end); ++e) {
          keys.clear();
          emit(e, keys);
          for (const Key& key : keys) {
            extmem::EncodeKey(key, record);
            extmem::AppendU32Le(record, e);
            route(static_cast<uint32_t>(Mix64(hash(key)) &
                                        (kBlockingMergeShards - 1)),
                  record);
            ++emitted;
          }
        }
        emissions_counter.Add(emitted);
      },
      shuffle.sinks());

  extmem::PostingsStream<Key> stream(shuffle.FinishMerged(pool));
  Key key{};
  std::vector<EntityId> entities;
  uint64_t num_postings = 0;
  while (stream.Next(key, entities)) {
    consume(key, entities);
    ++num_postings;
  }
  postings_counter.Add(num_postings);
}

/// Builds the merged postings of `num_entities` entities and hands each to
/// `consume(key, entities)`, ascending by key (keys are unique).
/// `emit(e, keys)` appends entity e's blocking keys to `keys` (cleared by
/// the caller), in the exact order the sequential scan would have produced
/// them. `hash(key)` must be a pure function (only the shard *grouping*
/// depends on it; the output is canonically sorted, so any stable hash
/// yields identical results). `entities` is scratch consume may steal or
/// mutate. A non-null `memory` streams the shard merge through the
/// spill-to-disk engine (StreamShardedPostings) — byte-identical postings,
/// bounded memory.
template <typename Key, typename EmitFn, typename HashFn, typename ConsumeFn>
void BuildShardedPostings(uint32_t num_entities, ThreadPool* pool,
                          const EmitFn& emit, const HashFn& hash,
                          const extmem::MemoryBudgetOptions* memory,
                          const ConsumeFn& consume) {
  if (memory != nullptr && memory->enabled()) {
    StreamShardedPostings<Key>(num_entities, pool, emit, hash, *memory,
                               consume);
    return;
  }
  using Emission = std::pair<Key, EntityId>;

  // Coarse-grained telemetry only: one add per chunk or shard, never per
  // emission — instrumentation must not show up in the hot-path profile.
  static obs::Counter& chunks_counter =
      obs::MetricsRegistry::Default().counter("blocking.chunks");
  static obs::Counter& emissions_counter =
      obs::MetricsRegistry::Default().counter("blocking.emissions");
  static obs::Counter& postings_counter =
      obs::MetricsRegistry::Default().counter("blocking.postings");
  static obs::Histogram& shard_records =
      obs::MetricsRegistry::Default().histogram("blocking.shard_records");
  static obs::Histogram& merge_fanin =
      obs::MetricsRegistry::Default().histogram("blocking.merge_fanin");
  chunks_counter.Add(NumChunks(num_entities, kBlockingChunkEntities));

  // Phase A: per-chunk scan. Each chunk collects its emissions in scan
  // order, then counting-sorts them by shard in place — one contiguous
  // buffer plus an offset table per chunk instead of 64 separate shard
  // vectors. The stable scatter keeps scan order within each (chunk,
  // shard) slice, which is all phase B relies on.
  struct ChunkShards {
    std::vector<Emission> emissions;  // partitioned by shard, scan order
    std::array<uint32_t, kBlockingMergeShards + 1> offsets;
  };
  std::vector<ChunkShards> chunk_shards(
      NumChunks(num_entities, kBlockingChunkEntities));
  // Per-worker scratch arenas: the emission/key/shard buffers grow once to
  // a chunk's high-water mark and are reused by every later chunk the same
  // worker picks up, instead of reallocating per chunk.
  struct ChunkScratch {
    std::vector<Key> keys;
    std::vector<Emission> emissions;
    std::vector<uint8_t> shard_of;
  };
  WorkerScratch<ChunkScratch> arenas(pool);
  RunChunkedTasks(
      pool, num_entities, kBlockingChunkEntities,
      [&](size_t c, size_t begin, size_t end) {
        ChunkScratch& arena = arenas.Local();
        std::vector<Key>& keys = arena.keys;
        std::vector<Emission>& scratch = arena.emissions;
        std::vector<uint8_t>& shard_of = arena.shard_of;
        scratch.clear();
        shard_of.clear();
        for (EntityId e = static_cast<EntityId>(begin);
             e < static_cast<EntityId>(end); ++e) {
          keys.clear();
          emit(e, keys);
          for (Key& key : keys) {
            shard_of.push_back(static_cast<uint8_t>(
                Mix64(hash(key)) & (kBlockingMergeShards - 1)));
            scratch.emplace_back(std::move(key), e);
          }
        }
        emissions_counter.Add(scratch.size());
        ChunkShards& out = chunk_shards[c];
        out.offsets.fill(0);
        for (const uint8_t s : shard_of) ++out.offsets[s + 1];
        for (size_t s = 1; s < out.offsets.size(); ++s) {
          out.offsets[s] += out.offsets[s - 1];
        }
        std::array<uint32_t, kBlockingMergeShards> cursor;
        std::copy(out.offsets.begin(), out.offsets.end() - 1,
                  cursor.begin());
        out.emissions.resize(scratch.size());
        for (size_t i = 0; i < scratch.size(); ++i) {
          out.emissions[cursor[shard_of[i]]++] = std::move(scratch[i]);
        }
      });

  // Phase B: per-shard merge. Gathering chunk slices in chunk order and
  // stable-sorting by key alone keeps equal-key runs in scan order.
  std::vector<std::vector<KeyedPosting<Key>>> shard_out(kBlockingMergeShards);
  RunPoolTasks(pool, kBlockingMergeShards, [&](size_t s) {
    std::vector<Emission> pairs;
    size_t total = 0;
    size_t contributing_chunks = 0;
    for (const auto& chunk : chunk_shards) {
      const size_t slice = chunk.offsets[s + 1] - chunk.offsets[s];
      total += slice;
      if (slice > 0) ++contributing_chunks;
    }
    shard_records.Record(total);
    merge_fanin.Record(contributing_chunks);
    pairs.reserve(total);
    for (auto& chunk : chunk_shards) {
      const auto begin = chunk.emissions.begin() + chunk.offsets[s];
      const auto end = chunk.emissions.begin() + chunk.offsets[s + 1];
      pairs.insert(pairs.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(end));
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Emission& a, const Emission& b) {
                       return a.first < b.first;
                     });
    size_t i = 0;
    while (i < pairs.size()) {
      size_t j = i + 1;
      while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
      KeyedPosting<Key> posting;
      posting.entities.reserve(j - i);
      for (size_t t = i; t < j; ++t) {
        posting.entities.push_back(pairs[t].second);
      }
      posting.key = std::move(pairs[i].first);
      shard_out[s].push_back(std::move(posting));
      i = j;
    }
  });

  // Phase C: shards hold disjoint key sets, so one sort by (unique) key
  // fixes the global emission order.
  std::vector<KeyedPosting<Key>> postings = FlattenInOrder(shard_out);
  std::sort(postings.begin(), postings.end(),
            [](const KeyedPosting<Key>& a, const KeyedPosting<Key>& b) {
              return a.key < b.key;
            });
  postings_counter.Add(postings.size());
  for (KeyedPosting<Key>& posting : postings) {
    consume(posting.key, posting.entities);
  }
}

}  // namespace minoan

#endif  // MINOAN_BLOCKING_SHARDED_BLOCKING_H_
