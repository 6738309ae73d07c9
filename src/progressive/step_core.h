// Copyright 2026 The MinoanER Authors.
// The shared budgeted stepping core of MinoanER's progressive loop.
//
// Both progressive drivers — the batch ProgressiveResolver and the online
// OnlineResolver — spend a comparison budget the same way: pop the
// highest-priority candidate, skip already-executed pairs, re-queue entries
// whose priority drifted down past the staleness tolerance, execute the
// rest. Only the storage behind those four decisions differs (two hash maps
// and a frozen graph in batch, one PairState map and a growable adjacency
// online), so the loop itself lives here once, parameterized by callables.
//
// The invariant this file owes its callers: for any n, running the loop
// with max_comparisons = n/2 twice executes the byte-identical comparison
// sequence as running it once with n — the pay-as-you-go contract of the
// Session API.

#ifndef MINOAN_PROGRESSIVE_STEP_CORE_H_
#define MINOAN_PROGRESSIVE_STEP_CORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "kb/entity.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "progressive/scheduler.h"
#include "util/hash.h"

namespace minoan {

/// Outcome of one budgeted stepping call (batch session or online engine).
struct StepResult {
  /// Comparisons executed by THIS call.
  uint64_t comparisons = 0;
  /// Matches confirmed by this call (comparisons_done stamps are cumulative
  /// across the whole resolution).
  std::vector<MatchEvent> matches;
  /// True when the queue drained before the budget was spent.
  bool exhausted = false;
  /// Loop accounting of THIS call: schedule entries popped, and how the
  /// ones not executed were disposed of — re-queued as stale, or skipped as
  /// already executed. pops == comparisons + requeues + skips.
  uint64_t pops = 0;
  uint64_t requeues = 0;
  uint64_t skips = 0;
  /// Wall time this call took (filled by the session-level drivers;
  /// observational, never part of any determinism contract).
  double wall_millis = 0.0;
  /// Metrics-registry snapshot taken as the call returned (filled by
  /// ResolutionSession::Step while the registry is enabled; null
  /// otherwise). Shared: snapshots are immutable once taken.
  std::shared_ptr<const obs::StatsSnapshot> stats;
};

/// Pops and executes up to `max_comparisons` scheduled comparisons
/// (0 = no per-call cap). The driver supplies four callables:
///
///   should_stop()                  — extra stop condition checked before
///                                    every pop (overall budget, wall clock);
///   already_executed(pair)         — popped pair was executed earlier;
///   current_priority(a, b, pair)   — priority against the CURRENT state,
///                                    for the staleness re-queue rule;
///   execute(pair, a, b)            — run the comparison (matching + update
///                                    phase); counted against the budget.
///
/// Returns the comparisons spent, the loop accounting, and whether the
/// queue drained; confirmed matches are recorded by `execute` on the
/// driver's side.
template <typename StopFn, typename ExecutedFn, typename PriorityFn,
          typename ExecuteFn>
StepResult RunScheduledComparisons(ComparisonScheduler& scheduler,
                                   uint64_t max_comparisons,
                                   double staleness_tolerance,
                                   StopFn&& should_stop,
                                   ExecutedFn&& already_executed,
                                   PriorityFn&& current_priority,
                                   ExecuteFn&& execute) {
  StepResult out;
  // Counted in locals, which stay in registers: out is the caller's return
  // slot, so its fields would be stored and reloaded around every call into
  // the (not inlined) matching and update code.
  uint64_t comparisons = 0, pops = 0, requeues = 0, skips = 0;
  uint64_t pair = 0;
  double popped_priority = 0.0;
  while (max_comparisons == 0 || comparisons < max_comparisons) {
    if (should_stop()) break;
    if (!scheduler.Pop(pair, popped_priority)) {
      out.exhausted = true;
      break;
    }
    ++pops;
    if (already_executed(pair)) {
      ++skips;
      continue;
    }
    const EntityId a = PairKeyFirst(pair);
    const EntityId b = PairKeySecond(pair);
    // Priority drift: the state may have changed since this entry was
    // pushed. Re-queue significantly stale entries instead of executing.
    const double current = current_priority(a, b, pair);
    if (current + 1e-12 < popped_priority * (1.0 - staleness_tolerance)) {
      scheduler.Push(pair, current);
      ++requeues;
      continue;
    }
    execute(pair, a, b);
    ++comparisons;
  }
  out.comparisons = comparisons;
  out.pops = pops;
  out.requeues = requeues;
  out.skips = skips;
  return out;
}

/// Adds one stepping call's loop accounting to the process-wide
/// progressive.{pops,requeues,skips,comparisons} counters. Drivers call it
/// once per Step/ResolveBudget call, never once per comparison.
inline void RecordLoopCounters(const StepResult& step) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  static obs::Counter& pops = registry.counter("progressive.pops");
  static obs::Counter& requeues = registry.counter("progressive.requeues");
  static obs::Counter& skips = registry.counter("progressive.skips");
  static obs::Counter& comparisons =
      registry.counter("progressive.comparisons");
  pops.Add(step.pops);
  requeues.Add(step.requeues);
  skips.Add(step.skips);
  comparisons.Add(step.comparisons);
}

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_STEP_CORE_H_
