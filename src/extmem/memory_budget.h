// Copyright 2026 The MinoanER Authors.
// MemoryBudgetOptions: the external-memory knob of the shuffle phases.
//
// MinoanER targets Web-of-Data-scale collections whose intermediate shuffle
// state (blocking postings, meta-blocking votes and edges) can exceed RAM.
// Every shuffle runs on one shard engine (extmem/shuffle.h) with or without
// a budget; the budget only decides when a shard writes a sorted run to
// disk. Each shard holds its records typed in memory and, once its buffer
// passes its share of the budget, sorts the buffer and spills it as one run.
// The output is bit-identical with and without spilling, at every thread
// count. No budget = a shard never spills: no file is opened and no spill
// directory is created.

#ifndef MINOAN_EXTMEM_MEMORY_BUDGET_H_
#define MINOAN_EXTMEM_MEMORY_BUDGET_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace minoan {
namespace extmem {

/// Floor on the per-shard run buffer: below this, runs degenerate to a
/// handful of records each. Deliberately tiny so tests can force many runs
/// on small corpora.
inline constexpr uint64_t kMinSpillRunBytes = 256;

/// External-memory budget for the shuffle phases. Default-constructed =
/// no budget: the shards keep everything in memory.
struct MemoryBudgetOptions {
  /// Total bytes the intermediate shuffle state of one phase may hold in
  /// RAM before spilling, split evenly across that phase's shards.
  /// 0 = unbounded (never spills).
  uint64_t shuffle_budget_bytes = 0;

  /// Directory for temp run files. Empty = the system temp directory.
  /// A shuffle that spills creates (and removes, on success and on error)
  /// its own uniquely named subdirectory underneath.
  std::string spill_dir;

  /// True when a budget is set.
  bool enabled() const { return shuffle_budget_bytes > 0; }

  /// Buffer bytes after which one of `num_shards` shards spills a run;
  /// 0 = never.
  uint64_t RunBytesPerShard(uint32_t num_shards) const {
    if (!enabled()) return 0;
    return std::max(kMinSpillRunBytes,
                    shuffle_budget_bytes / std::max<uint32_t>(1, num_shards));
  }
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_MEMORY_BUDGET_H_
