// Copyright 2026 The MinoanER Authors.
// The budgeted stepping core of MinoanER's progressive loop.
//
// ProgressiveResolver (progressive/resolver.h) is the one engine of the
// schedule -> match -> update loop; the batch ResolutionSession and the
// online OnlineResolver both drive it. Each call spends a comparison budget
// the same way: pop the highest-priority candidate, skip already-executed
// pairs, re-queue entries whose priority drifted down past the staleness
// tolerance, execute the rest.
//
// The invariant this file owes its callers: for any n, running the loop
// with max_comparisons = n/2 twice executes the byte-identical comparison
// sequence as running it once with n — the pay-as-you-go contract of the
// Session API.

#ifndef MINOAN_PROGRESSIVE_STEP_CORE_H_
#define MINOAN_PROGRESSIVE_STEP_CORE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "matching/matcher.h"
#include "obs/metrics.h"
#include "progressive/evidence_options.h"
#include "progressive/scheduler.h"

namespace minoan {

/// Outcome of one budgeted stepping call (batch Step or online
/// ResolveBudget).
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
  /// Neighbor pairs whose evidence this call's matches raised (each one is
  /// also a schedule push); pairs the update phase created a slot for
  /// during this call (blocking never produced them); and this call's
  /// matches on such pairs.
  uint64_t evidence_updates = 0;
  uint64_t discovered_pairs = 0;
  uint64_t discovered_matches = 0;
  /// Neighbor pairs this call's update phases considered — every pair they
  /// looked up in the schedule, before the executed and same-cluster
  /// filters (evidence_updates counts the ones that passed).
  uint64_t update_fanout = 0;
};

/// Similarity bonus of a slot's accumulated neighbor evidence.
inline double EvidenceBonus(const ScheduleSlot& slot,
                            const EvidenceOptions& evidence) {
  if (slot.evidence <= 0.0) return 0.0;
  return evidence.weight * std::min(1.0, slot.evidence);
}

/// Pops and executes up to `max_comparisons` scheduled comparisons
/// (0 = no per-call cap). The caller supplies two callables:
///
///   current_priority(slot)  — priority against the CURRENT state, for the
///                             staleness re-queue rule;
///   execute(slot)           — run the comparison (matching + update phase);
///                             counted against the budget. Returns the
///                             number of evidence updates it made.
///
/// Popped slots already executed are skipped here. Returns the comparisons
/// spent, the loop accounting, and whether the queue drained; confirmed
/// matches (and discovered pairs) are recorded on the caller's side.
template <typename PriorityFn, typename ExecuteFn>
StepResult RunScheduledComparisons(ComparisonScheduler& scheduler,
                                   uint64_t max_comparisons,
                                   double staleness_tolerance,
                                   PriorityFn&& current_priority,
                                   ExecuteFn&& execute) {
  StepResult out;
  // Counted in locals, which stay in registers: out is the caller's return
  // slot, so its fields would be stored and reloaded around every call into
  // the (not inlined) matching and update code.
  uint64_t comparisons = 0, pops = 0, requeues = 0, skips = 0;
  uint64_t evidence_updates = 0;
  uint32_t slot = 0;
  double popped_priority = 0.0;
  while (max_comparisons == 0 || comparisons < max_comparisons) {
    if (!scheduler.Pop(slot, popped_priority)) {
      out.exhausted = true;
      break;
    }
    ++pops;
    if (scheduler.slot(slot).executed) {
      ++skips;
      continue;
    }
    // Priority drift: the state may have changed since this entry was
    // pushed. Re-queue significantly stale entries instead of executing.
    const double current = current_priority(slot);
    if (current + 1e-12 < popped_priority * (1.0 - staleness_tolerance)) {
      scheduler.Push(slot, current);
      ++requeues;
      continue;
    }
    evidence_updates += execute(slot);
    ++comparisons;
  }
  out.comparisons = comparisons;
  out.pops = pops;
  out.requeues = requeues;
  out.skips = skips;
  out.evidence_updates = evidence_updates;
  return out;
}

/// Adds one stepping call's loop accounting to the process-wide
/// progressive.{pops,requeues,skips,comparisons,evidence_updates,
/// discovered_pairs,discovered_matches,update_fanout} counters. Both
/// drivers call it once per Step/ResolveBudget call, never once per
/// comparison.
inline void RecordLoopCounters(const StepResult& step) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  static obs::Counter& pops = registry.counter("progressive.pops");
  static obs::Counter& requeues = registry.counter("progressive.requeues");
  static obs::Counter& skips = registry.counter("progressive.skips");
  static obs::Counter& comparisons =
      registry.counter("progressive.comparisons");
  static obs::Counter& evidence_updates =
      registry.counter("progressive.evidence_updates");
  static obs::Counter& discovered_pairs =
      registry.counter("progressive.discovered_pairs");
  static obs::Counter& discovered_matches =
      registry.counter("progressive.discovered_matches");
  static obs::Counter& update_fanout =
      registry.counter("progressive.update_fanout");
  pops.Add(step.pops);
  requeues.Add(step.requeues);
  skips.Add(step.skips);
  comparisons.Add(step.comparisons);
  evidence_updates.Add(step.evidence_updates);
  discovered_pairs.Add(step.discovered_pairs);
  discovered_matches.Add(step.discovered_matches);
  update_fanout.Add(step.update_fanout);
}

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_STEP_CORE_H_
