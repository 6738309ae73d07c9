// Copyright 2026 The MinoanER Authors.
// The sharded postings core: deterministic parallel inverted-index
// construction shared by every batch blocking method.
//
// This is the front-of-pipeline counterpart of metablocking/sharded_prune.h:
// entities are dealt to workers in fixed-size chunks (constant, independent
// of the worker count), each chunk emits its (key, entity) records into a
// fixed number of key-hashed shards of the shard engine (extmem/shuffle.h),
// and each shard sorts them by (key, entity) — ascending entity id is the
// sequential scan order. Merging the shards by key yields postings that are
// bit-identical for every thread count, including the inline (no pool)
// path.
//
// There is one path. A memory budget only decides when a shard writes a
// sorted run to disk; the postings are byte-identical with and without
// spilling, and reach the caller one at a time either way.

#ifndef MINOAN_BLOCKING_SHARDED_BLOCKING_H_
#define MINOAN_BLOCKING_SHARDED_BLOCKING_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "extmem/records.h"
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

/// Builds the merged postings of `num_entities` entities and hands each to
/// `consume(key, entities)`, ascending by key (keys are unique), with the
/// entities in sequential scan order (ascending id; duplicates preserved
/// when a method emits one key twice for an entity — BlockCollection's
/// AddBlock dedups downstream, but size filters see the raw count).
/// `emit(e, keys)` appends entity e's blocking keys to `keys` (cleared by
/// the caller), in the exact order the sequential scan would have produced
/// them. `hash(key)` must be a pure function (only the shard *grouping*
/// depends on it; the output is in key order, so any stable hash yields
/// identical results). `entities` is scratch consume may steal or mutate.
///
/// Emissions go through the shard engine (extmem/shuffle.h) as (key,
/// entity) records; each shard yields them sorted, spilling runs only when
/// `memory` sets a budget and a shard passes its share. Keys are
/// shard-disjoint, so merging the shards' sorted streams by key gives the
/// global key order, one posting at a time — the full postings are never
/// held.
template <typename Key, typename EmitFn, typename HashFn, typename ConsumeFn>
void BuildShardedPostings(uint32_t num_entities, ThreadPool* pool,
                          const EmitFn& emit, const HashFn& hash,
                          const extmem::MemoryBudgetOptions& memory,
                          const ConsumeFn& consume) {
  using Record = extmem::KeyedEntity<Key>;
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

  extmem::ShardedShuffle<Record> shuffle(pool, memory, kBlockingMergeShards);
  WorkerScratch<std::vector<Key>> keys_scratch(pool);
  shuffle.Scatter(
      num_entities, kBlockingChunkEntities,
      [&](size_t /*chunk*/, size_t begin, size_t end, const auto& route) {
        std::vector<Key>& keys = keys_scratch.Local();
        uint64_t emitted = 0;
        for (EntityId e = static_cast<EntityId>(begin);
             e < static_cast<EntityId>(end); ++e) {
          keys.clear();
          emit(e, keys);
          for (Key& key : keys) {
            const uint32_t shard = static_cast<uint32_t>(
                Mix64(hash(key)) & (kBlockingMergeShards - 1));
            route(shard, Record{std::move(key), e});
          }
          emitted += keys.size();
        }
        emissions_counter.Add(emitted);
      });
  shuffle.Finish([](uint32_t /*s*/, extmem::Shard<Record>& shard) {
    shard_records.Record(shard.records());
    merge_fanin.Record(shard.slices());
  });

  // Min-heap of the shards by their next record's key. A shard leaves the
  // heap with its whole posting: its equal keys are adjacent.
  struct Head {
    Record* record;
    extmem::Shard<Record>* shard;
  };
  const auto later = [](const Head& a, const Head& b) {
    return b.record->key < a.record->key;
  };
  std::vector<Head> heap;
  for (uint32_t s = 0; s < kBlockingMergeShards; ++s) {
    extmem::Shard<Record>& shard = shuffle.shard(s);
    if (Record* record = shard.Next()) heap.push_back({record, &shard});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  Key key{};
  std::vector<EntityId> entities;
  uint64_t num_postings = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    key = std::move(head.record->key);
    entities.clear();
    do {
      entities.push_back(head.record->entity);
      head.record = head.shard->Next();
    } while (head.record != nullptr && head.record->key == key);
    consume(key, entities);
    ++num_postings;
    if (head.record != nullptr) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  postings_counter.Add(num_postings);
}

}  // namespace minoan

#endif  // MINOAN_BLOCKING_SHARDED_BLOCKING_H_
