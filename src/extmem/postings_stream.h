// Copyright 2026 The MinoanER Authors.
// Streaming postings: a globally key-sorted record stream over many spilled
// shard sinks, and a posting-group cursor on top of it.
//
// The sharded blocking core routes (key, entity) records to 64 key-hashed
// shard sinks; the in-memory path then concatenates the per-shard sorted
// postings and sorts them by key. Because every occurrence of one key lands
// in exactly ONE shard, the same global key order can be produced without
// materializing anything: k-way-merge the 64 finished shard sources by key
// bytes (the key byte encoding is order-preserving, and key ties across
// shards are impossible). MergedShuffle packages that — the sinks, their
// ScopedSpillDir, and the cross-shard RunMerger — behind one ShuffleSource
// whose stream is byte-identical at every thread count and budget.
//
// PostingsStream turns the merged record stream into (key, [entities])
// posting groups, one per distinct key, holding only the current group in
// memory. This is what lets the blocking methods feed the block collection
// directly from spill runs, with the full postings never materialized.

#ifndef MINOAN_EXTMEM_POSTINGS_STREAM_H_
#define MINOAN_EXTMEM_POSTINGS_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/shuffle.h"
#include "extmem/spill_file.h"

namespace minoan {

class ThreadPool;

namespace extmem {

/// Owns a set of spilling shard sinks plus their temp dir, and merges the
/// finished shards into one globally key-sorted stream. Keys must be
/// shard-disjoint (each key routed to exactly one sink) — that is what
/// makes the cross-shard merge a total key order.
class MergedShuffle {
 public:
  /// Creates `num_shards` sinks with per-shard run budgets derived from
  /// `memory` (see MemoryBudgetOptions::RunBytesPerShard / MergeFanin).
  MergedShuffle(const MemoryBudgetOptions& memory, uint32_t num_shards);
  ~MergedShuffle();

  MergedShuffle(const MergedShuffle&) = delete;
  MergedShuffle& operator=(const MergedShuffle&) = delete;

  /// The shard sinks, for ScatterIntoSinks. Valid until FinishMerged.
  std::vector<std::unique_ptr<SpillShuffle>>& sinks() { return sinks_; }

  /// Finishes every sink (parallel across shards) and returns the merged,
  /// globally key-sorted stream. Call exactly once; the returned source is
  /// owned by this object and valid for its lifetime.
  ShuffleSource& FinishMerged(ThreadPool* pool);

 private:
  ScopedSpillDir dir_;
  std::vector<std::unique_ptr<SpillShuffle>> sinks_;
  std::unique_ptr<ShuffleSource> merged_;
};

/// Groups a key-sorted record stream (payload = u32 LE entity id) into
/// postings: each Next yields one distinct key and all its entities, in
/// stream (= arrival, for equal keys) order.
template <typename Key>
class PostingsStream {
 public:
  explicit PostingsStream(ShuffleSource& source) : source_(&source) {}

  /// Advances to the next posting. Returns false at end of stream.
  bool Next(Key& key, std::vector<uint32_t>& entities) {
    entities.clear();
    std::string_view record;
    if (!has_pending_) {
      if (!source_->Next(record)) return false;
      key_bytes_.assign(RecordKey(record));
      pending_entity_ = ReadU32Le(RecordPayload(record));
    }
    has_pending_ = false;
    key = DecodeKey<Key>(key_bytes_);
    entities.push_back(pending_entity_);
    while (source_->Next(record)) {
      const std::string_view key_bytes = RecordKey(record);
      if (key_bytes != key_bytes_) {
        key_bytes_.assign(key_bytes);
        pending_entity_ = ReadU32Le(RecordPayload(record));
        has_pending_ = true;
        break;
      }
      entities.push_back(ReadU32Le(RecordPayload(record)));
    }
    return true;
  }

 private:
  ShuffleSource* source_;
  std::string key_bytes_;
  uint32_t pending_entity_ = 0;
  bool has_pending_ = false;
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_POSTINGS_STREAM_H_
