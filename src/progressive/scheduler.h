// Copyright 2026 The MinoanER Authors.
// The comparison scheduler: every known pair's loop state in one dense slot
// table, plus a lazy priority queue over the slots.
//
// The poster's scheduling phase "selects which pairs of descriptions … will
// be compared in the entity matching phase and in what order". The
// progressive engine keeps its per-pair state here — blocking likelihood,
// accumulated neighbor evidence, executed flag, newest priority — addressed
// by a dense slot id, so popping a comparison and pricing it read one slot
// and probe no hash table. A pair is looked up by key only where it arrives
// by key (the update phase, seeds, online ingest deltas, queries, restore).
//
// Slots and the pair index come in two parts:
//   * the blocking candidates, installed in bulk (InstallCandidates, from
//     Begin and the batch restore) as slots 0..k-1 in ascending pair order,
//     so a candidate's slot id is its pair's rank. Their index is CSR:
//     per-entity offsets into the candidate slots whose pair's first entity
//     it is, plus a row of 4-byte second entities searched by bisection;
//   * every pair added later (FindOrAdd: discovered pairs, seeds, online
//     ingest deltas and the online restore — all the online engine ever
//     has), appended after them and indexed by a flat hash map.
//
// The queue has two parts:
//   * a primed run: the initial entries sorted once by (priority desc,
//     pair asc) and consumed by a cursor — one sort instead of n heap
//     pushes;
//   * a binary heap holding every later push (evidence updates, stale
//     re-queues, online ingest deltas).
// Priorities change as matches land, so pushes invalidate lazily: each slot
// carries a push version (0 = primed), and a run or heap entry whose version
// no longer matches its slot's — or whose slot is no longer live — is
// discarded at pop time. Pop takes the better of the two heads.
//
// Determinism contract: pop order depends only on the (priority, pair) of
// the live entries — ties broken by the smaller pair — never on push order,
// versions, slot ids, or which part an entry sits in. A cursor over a
// sorted run merged with a heap is an exact priority queue under that
// order, so a schedule rebuilt from its live (pair, priority) list pops the
// exact same sequence as the original.

#ifndef MINOAN_PROGRESSIVE_SCHEDULER_H_
#define MINOAN_PROGRESSIVE_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "metablocking/meta_blocking_types.h"
#include "util/flat_table.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace minoan {

/// The loop state of one known pair. Slots are never removed.
struct ScheduleSlot {
  uint64_t pair = 0;
  /// Normalized blocking likelihood (0 for pairs only the update phase
  /// produced).
  double likelihood = 0.0;
  /// Neighbor evidence accumulated by the update phase.
  double evidence = 0.0;
  /// Priority of the pair's newest push (its pop priority while live).
  double priority = 0.0;
  /// Push version: 0 when primed, bumped by every later push.
  uint32_t version = 0;
  /// Scheduled and not yet popped or erased.
  bool live = false;
  /// Compared, or applied as a trusted seed.
  bool executed = false;
  /// Produced by blocking (batch: a meta-blocking candidate; online: an
  /// index delta). Matches on other pairs count as discovered.
  bool candidate = false;
  /// The update phase touched the pair (the batch checkpoint gives it an
  /// evidence entry, which matters because the increment may be 0).
  bool has_evidence = false;
};

/// Dense per-pair slots plus a primed run and a heap over them.
class ComparisonScheduler {
 public:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  // --- Slots ----------------------------------------------------------------

  /// Slot of `pair`, or kNoSlot when the pair is unknown.
  uint32_t Find(uint64_t pair) const {
    const uint32_t id = FindCandidate(pair);
    if (id != kNoSlot) return id;
    const uint32_t* later = later_.Find(pair);
    return later == nullptr ? kNoSlot : *later;
  }
  /// Slot of `pair`, appending a zeroed one on first sight. `created`
  /// (optional) reports whether it was appended. Appending invalidates
  /// references to slots.
  uint32_t FindOrAdd(uint64_t pair, bool* created = nullptr);

  /// Installs the blocking candidates of a scheduler that has no slots yet:
  /// slot i is the i-th distinct pair in ascending order, with likelihood
  /// weight · scale and the candidate flag set. A pair listed twice keeps
  /// its last weight. Every entity id must be below `num_entities`.
  /// Returns each listing's slot in list order (kNoSlot for a listing a
  /// later one of its pair supersedes). Runs on `pool` when given (a
  /// counting scatter on the first entity, then per-row sorts); the slots
  /// are the same either way. The table is reserved with 1/kDiscoveredHeadroom
  /// headroom for the pairs the update phase discovers, so the first of
  /// them does not copy the whole table (capacity never touched costs no
  /// resident memory).
  NoInitVector<uint32_t> InstallCandidates(
      std::span<const WeightedComparison> candidates, uint32_t num_entities,
      double scale, ThreadPool* pool = nullptr);
  static constexpr size_t kDiscoveredHeadroom = 8;

  /// Number of installed candidates (slots 0 .. num_candidates() - 1).
  size_t num_candidates() const { return seconds_.size(); }

  ScheduleSlot& slot(uint32_t id) { return slots_[id]; }
  const ScheduleSlot& slot(uint32_t id) const { return slots_[id]; }
  /// Ensures `n` slots added by FindOrAdd fit without reallocating the
  /// table (which gets the same headroom as an install) or the map of
  /// later pairs.
  void Reserve(size_t n);

  /// Every slot id, in ascending pair order — the canonical order
  /// checkpoints are written in: the candidate range merged with the later
  /// slots sorted by pair.
  std::vector<uint32_t> SlotsByPair() const;

  // --- Schedule -------------------------------------------------------------

  /// One initial schedule entry: slot `slot`, whose pair is `pair`, at
  /// `priority`.
  struct PrimeEntry {
    double priority;
    uint64_t pair;
    uint32_t slot;
  };

  /// Makes every listed slot live at its priority, all at once: the run is
  /// sorted once instead of taking n heap pushes. A slot listed twice keeps
  /// its last priority. Only an empty schedule may be primed (Begin, the
  /// online warm start, restore). Counts entries.size() pushes. A list
  /// nearly in pop order (Begin's, in meta-blocking's weight order) is
  /// repaired in one pass over its own keys; any other is sorted. Reorders
  /// `entries`; runs on `pool` when given.
  void Prime(std::span<PrimeEntry> entries, ThreadPool* pool = nullptr);

  /// Schedules (or re-prioritizes) slot `id`; the newest push wins.
  void Push(uint32_t id, double priority);

  /// Pops the highest-priority live slot (ties: smaller pair first),
  /// clearing its live flag. Returns false when nothing is live.
  bool Pop(uint32_t& id, double& priority);

  /// Unschedules slot `id` (e.g. once executed); its queued entries die
  /// lazily.
  void Erase(uint32_t id) {
    ScheduleSlot& s = slots_[id];
    if (s.live) {
      s.live = false;
      --live_;
    }
  }

  /// Number of live slots (not raw queue entries).
  size_t live_size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Total pushes (primed entries included), for accounting the scheduling
  /// overhead.
  uint64_t total_pushes() const { return total_pushes_; }
  /// Restores the push counter of a checkpointed schedule.
  void set_total_pushes(uint64_t n) { total_pushes_ = n; }

 private:
  /// The schedule order: higher priority first, ties to the smaller pair.
  static bool PopsBefore(double p, uint64_t pair, double q, uint64_t other) {
    if (p != q) return p > q;
    return pair < other;
  }

  struct Entry {
    double priority;
    uint64_t pair;
    uint32_t slot;
    uint32_t version;
    // std::priority_queue is a max-heap on operator<.
    bool operator<(const Entry& o) const {
      return PopsBefore(o.priority, o.pair, priority, pair);
    }
  };

  /// How many run entries ahead of the cursor Pop prefetches a slot.
  static constexpr size_t kRunLookahead = 8;

  static bool EntryBefore(const PrimeEntry& x, const PrimeEntry& y) {
    return PopsBefore(x.priority, x.pair, y.priority, y.pair);
  }

  /// Slot of `pair` among the installed candidates, or kNoSlot.
  uint32_t FindCandidate(uint64_t pair) const {
    const uint32_t first = PairKeyFirst(pair);
    if (first + size_t{1} >= row_begin_.size()) return kNoSlot;
    const uint32_t* begin = seconds_.data() + row_begin_[first];
    const uint32_t* end = seconds_.data() + row_begin_[first + 1];
    const uint32_t second = PairKeySecond(pair);
    const uint32_t* it = std::lower_bound(begin, end, second);
    if (it == end || *it != second) return kNoSlot;
    return static_cast<uint32_t>(it - seconds_.data());
  }

  NoInitVector<ScheduleSlot> slots_;
  /// The candidate index (empty until InstallCandidates): candidate slots
  /// row_begin_[e] .. row_begin_[e + 1] - 1 are the pairs (e, x), ascending
  /// in x, and seconds_[id] is the second entity of candidate slot id.
  std::vector<uint32_t> row_begin_;
  NoInitVector<uint32_t> seconds_;
  /// pair → slot id of every slot FindOrAdd appended.
  FlatPairMap<uint32_t> later_;
  /// Primed slot ids in pop order, consumed from run_[cursor_]; entries
  /// carry version 0.
  NoInitVector<uint32_t> run_;
  size_t cursor_ = 0;
  std::priority_queue<Entry> heap_;
  size_t live_ = 0;
  uint64_t total_pushes_ = 0;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_SCHEDULER_H_
