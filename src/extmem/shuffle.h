// Copyright 2026 The MinoanER Authors.
// The shard engine: the one typed path of every deterministic shuffle in
// the pipeline, with or without a memory budget.
//
// The shard cores — blocking postings (blocking/sharded_blocking.h), sorted
// neighborhood's key sort (blocking/char_blocking.cc) and meta-blocking's
// votes and edges (metablocking/sharded_prune.cc) — share one contract:
// fixed-size chunks of a scan route typed records (extmem/records.h) to a
// fixed number of shards, and each shard yields its records sorted by the
// record type's total order.
//
//   * Chunks scan in parallel, in waves of kShuffleWaveChunks; each shard
//     then takes the wave's records in chunk order.
//   * A shard holds its records typed. Only when its buffer passes its
//     share of the budget does it sort the buffer and write it as one
//     compressed run (extmem/run_codec.h), encoding each record.
//   * Finish sorts what is left. When nothing spilled, Next walks that
//     buffer; otherwise it decodes the k-way merge (extmem/run_merger.h) of
//     the runs and the buffer, cascade-merging first so that no merge opens
//     more than kMergeFanin runs.
//
// The record orders are total and equal records are identical, so a shard's
// output is the same for any budget, any spill timing and any thread count.
// The budget only decides when a shard writes a run: without one a shard
// never spills, and the engine opens no file and creates no directory.
// Temp files live in a ScopedSpillDir and are removed when the shuffle
// ends, on success and on exception.

#ifndef MINOAN_EXTMEM_SHUFFLE_H_
#define MINOAN_EXTMEM_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/records.h"
#include "extmem/run_codec.h"
#include "extmem/run_merger.h"
#include "extmem/spill_file.h"
#include "util/thread_pool.h"

namespace minoan {
namespace extmem {

/// Most runs one merge reads. A shard that spilled more first merges
/// consecutive groups of this many runs into a next generation of larger
/// runs, until the final merge fits.
inline constexpr size_t kMergeFanin = 16;

/// Chunks scanned per wave. Bounds the records in flight between the scan
/// and the shards independently of the corpus size; a wave boundary only
/// decides when a shard may spill, never what it yields.
inline constexpr size_t kShuffleWaveChunks = 64;

// ---------------------------------------------------------------------------
// Telemetry (for tests and benches)
// ---------------------------------------------------------------------------
// Backed by the obs::MetricsRegistry "spill.*" metrics (so spill activity
// appears in --metrics-out stats); this struct is the stable probe API.
// Reset resets exactly the spill.* metrics. Note: while the registry is
// disabled (obs::MetricsRegistry::set_enabled(false)), spill activity is
// not recorded and these probes read as empty.

struct SpillTelemetry {
  uint64_t runs_spilled = 0;   ///< total sorted runs written to disk
  uint64_t bytes_spilled = 0;  ///< total bytes written to run files
  uint64_t sinks_spilled = 0;  ///< finished shards that spilled >= 1 run
  uint64_t sinks_loaded = 0;   ///< finished shards that got >= 1 record
  uint64_t cascade_merges = 0;  ///< intermediate cascaded run merges
  /// Minimum runs spilled over finished shards that got >= 1 record
  /// (UINT64_MAX when none finished yet) — the "every shard really spilled
  /// k runs" probe of the determinism tests.
  uint64_t min_runs_per_loaded_sink = 0;
};

SpillTelemetry GetSpillTelemetry();
void ResetSpillTelemetry();

/// Records one finished shard in the spill.* telemetry.
void RecordFinishedShard(uint64_t records, uint64_t runs);

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// The spilled runs of one shard, in arrival order: every record of run i
/// arrived before every record of run i + 1.
class SpilledRuns {
 public:
  explicit SpilledRuns(ScopedSpillDir* dir) : dir_(dir) {}

  /// Writes one run of `count` records; `encode(i, out)` appends the i-th
  /// in sorted order.
  template <typename EncodeFn>
  void Write(size_t count, const EncodeFn& encode) {
    std::string path = dir_->NextRunPath();
    CompressedRunWriter writer(path);
    std::string record;
    for (size_t i = 0; i < count; ++i) {
      record.clear();
      encode(i, record);
      writer.Append(record);
    }
    Add(std::move(path), writer.Close());
  }

  size_t size() const { return paths_.size(); }

  /// Cascade-merges the runs down to kMergeFanin, then returns the merge of
  /// them and `tail` (the latest records). A cascade merge that fails
  /// removes its partial output before the error propagates.
  std::unique_ptr<ShuffleSource> MergeWith(std::unique_ptr<ShuffleSource> tail);

 private:
  void Add(std::string path, uint64_t bytes);
  std::string MergeGroup(size_t begin, size_t end);

  ScopedSpillDir* dir_;
  std::vector<std::string> paths_;
};

/// One shard: Append records in arrival order, Finish once, then Next until
/// nullptr to read them back in the record type's order.
template <typename Record>
class Shard {
 public:
  /// `run_bytes` is the buffer size at which the shard spills a run; 0 =
  /// never. `sort_pool` sorts the buffer on a pool (ParallelSort); pass it
  /// only to a shard that is fed and finished on the calling thread.
  Shard(uint64_t run_bytes, ScopedSpillDir* dir, ThreadPool* sort_pool)
      : spill_at_(run_bytes == 0 ? std::numeric_limits<uint64_t>::max()
                                 : run_bytes),
        sort_pool_(sort_pool),
        runs_(dir) {}

  /// Moves `slice` into the shard, spilling a sorted run whenever the
  /// memory the buffer holds — its allocation plus the records' heap
  /// bytes — reaches the shard's share of the budget.
  void Append(std::span<Record> slice) {
    if (slice.empty()) return;
    ++slices_;
    records_ += slice.size();
    for (Record& record : slice) {
      heap_bytes_ += record.HeapBytes();
      buffer_.push_back(std::move(record));
      if (buffer_.capacity() * sizeof(Record) + heap_bytes_ >= spill_at_) {
        SpillRun();
      }
    }
  }

  /// Sorts the buffer and, when runs were spilled, opens their merge.
  void Finish() {
    RecordFinishedShard(records_, runs_.size());
    Sort();
    if (runs_.size() > 0) {
      merged_ = runs_.MergeWith(std::make_unique<BufferSource>(buffer_));
    }
  }

  /// The next record in order, or nullptr once all are read (the shard's
  /// memory and files are then released). The record stays valid until the
  /// next call, and the caller may move from it.
  Record* Next() {
    if (merged_ != nullptr) {
      std::string_view bytes;
      if (merged_->Next(bytes)) {
        current_ = Record::Decode(bytes);
        return &current_;
      }
    } else if (next_ < buffer_.size()) {
      return &buffer_[next_++];
    }
    merged_.reset();
    buffer_ = std::vector<Record>();
    next_ = 0;
    return nullptr;
  }

  /// Records appended.
  uint64_t records() const { return records_; }
  /// Non-empty slices appended: how many chunks fed this shard.
  uint64_t slices() const { return slices_; }

 private:
  /// The sorted buffer as a run of the final merge, encoded on the fly.
  class BufferSource : public ShuffleSource {
   public:
    explicit BufferSource(std::span<const Record> records)
        : records_(records) {}
    bool Next(std::string_view& record) override {
      if (next_ == records_.size()) return false;
      bytes_.clear();
      records_[next_++].Encode(bytes_);
      record = bytes_;
      return true;
    }

   private:
    std::span<const Record> records_;
    size_t next_ = 0;
    std::string bytes_;
  };

  /// Arrival order is mostly ascending runs (chunks scan entities in
  /// order), which a merge sort exploits; a shard with a pool sorts on it.
  void Sort() {
    if (sort_pool_ == nullptr) {
      std::stable_sort(buffer_.begin(), buffer_.end());
    } else {
      ParallelSort(sort_pool_, std::span<Record>(buffer_), std::less<Record>());
    }
  }

  void SpillRun() {
    Sort();
    runs_.Write(buffer_.size(), [this](size_t i, std::string& out) {
      buffer_[i].Encode(out);
    });
    buffer_ = std::vector<Record>();
    heap_bytes_ = 0;
  }

  uint64_t spill_at_;
  ThreadPool* sort_pool_;
  SpilledRuns runs_;
  std::vector<Record> buffer_;
  uint64_t heap_bytes_ = 0;
  uint64_t records_ = 0;
  uint64_t slices_ = 0;
  std::unique_ptr<ShuffleSource> merged_;  // null unless a run was spilled
  size_t next_ = 0;
  Record current_{};
};

/// A deterministic shuffle of typed records into `num_shards` shards (at
/// most 256), each spilling under its share of `memory`. Chunk and shard
/// task boundaries are fixed — never derived from the worker count — so
/// every shard receives the same records in the same order at every thread
/// count.
template <typename Record>
class ShardedShuffle {
 public:
  ShardedShuffle(ThreadPool* pool, const MemoryBudgetOptions& memory,
                 uint32_t num_shards)
      : pool_(pool), dir_(memory.spill_dir) {
    const uint64_t run_bytes = memory.RunBytesPerShard(num_shards);
    shards_.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      shards_.emplace_back(run_bytes, &dir_, num_shards == 1 ? pool : nullptr);
    }
  }

  /// Scans [0, total) in chunks of `chunk_size`: `scan(chunk, begin, end,
  /// route)` calls `route(shard, record)` for each of its records, in scan
  /// order. Each shard receives its records in (chunk, scan) order.
  template <typename ScanFn>
  void Scatter(size_t total, size_t chunk_size, const ScanFn& scan) {
    // A chunk's records partitioned by shard: shard s's slice is
    // records[offsets[s], offsets[s + 1]).
    struct ChunkSlices {
      std::vector<Record> records;
      std::vector<uint32_t> offsets;
    };
    struct Routed {
      std::vector<Record> records;
      std::vector<uint8_t> shard_of;
      std::vector<uint32_t> cursor;
    };
    const size_t num_shards = shards_.size();
    const size_t num_chunks = NumChunks(total, chunk_size);
    std::vector<ChunkSlices> wave(std::min(num_chunks, kShuffleWaveChunks));
    WorkerScratch<Routed> scratch(pool_);
    for (size_t first = 0; first < num_chunks; first += kShuffleWaveChunks) {
      const size_t wave_size = std::min(kShuffleWaveChunks, num_chunks - first);
      RunPoolTasks(pool_, wave_size, [&](size_t i) {
        Routed& routed = scratch.Local();
        routed.records.clear();
        routed.shard_of.clear();
        const size_t begin = (first + i) * chunk_size;
        scan(first + i, begin, std::min(total, begin + chunk_size),
             [&routed](uint32_t shard, Record&& record) {
               routed.shard_of.push_back(static_cast<uint8_t>(shard));
               routed.records.push_back(std::move(record));
             });
        // Stable counting sort by shard: scan order within each slice.
        ChunkSlices& out = wave[i];
        out.offsets.assign(num_shards + 1, 0);
        if (num_shards == 1) {
          std::swap(out.records, routed.records);
          out.offsets[1] = static_cast<uint32_t>(out.records.size());
          return;
        }
        for (const uint8_t s : routed.shard_of) ++out.offsets[s + 1];
        for (size_t s = 1; s <= num_shards; ++s) {
          out.offsets[s] += out.offsets[s - 1];
        }
        routed.cursor.assign(out.offsets.begin(), out.offsets.end() - 1);
        out.records.resize(routed.records.size());
        for (size_t r = 0; r < routed.records.size(); ++r) {
          out.records[routed.cursor[routed.shard_of[r]]++] =
              std::move(routed.records[r]);
        }
      });
      RunPoolTasks(pool_, num_shards, [&](size_t s) {
        for (size_t i = 0; i < wave_size; ++i) {
          ChunkSlices& slices = wave[i];
          shards_[s].Append(std::span<Record>(slices.records)
                                .subspan(slices.offsets[s],
                                         slices.offsets[s + 1] -
                                             slices.offsets[s]));
        }
      });
    }
  }

  /// Finishes each shard and calls `fn(s, shard)` on the task that finished
  /// it: in parallel across shards, while a lone shard sorts on the pool.
  template <typename Fn>
  void Finish(const Fn& fn) {
    RunPoolTasks(pool_, shards_.size(), [&](size_t s) {
      shards_[s].Finish();
      fn(static_cast<uint32_t>(s), shards_[s]);
    });
  }

  Shard<Record>& shard(uint32_t s) { return shards_[s]; }

 private:
  ThreadPool* pool_;
  ScopedSpillDir dir_;  // declared first: outlives the shards' run readers
  std::vector<Shard<Record>> shards_;
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_SHUFFLE_H_
