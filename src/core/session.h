// Copyright 2026 The MinoanER Authors.
// ResolutionSession: the first-class pay-as-you-go facade.
//
// MinoanER's promise is progressive resolution — "higher benefit is provided
// early on in the process" — which a production service consumes as an
// interruptible, resumable loop with observable intermediate output:
//
//   auto session = ResolutionSession::Open(collection, options);   // static
//   while (!session->exhausted()) {                                // phases
//     StepResult step = session->Step(10'000);   // spend some budget now
//     ...                                        // matches stream out
//   }
//   ResolutionReport report = session->Report();
//
// Open runs the static phases once (blocking → cleaning → meta-blocking →
// graph/evaluator construction, sharing one thread pool) and hands back a
// session whose Step spends comparisons incrementally, with the invariant
// that Step(n/2) twice is byte-identical to Step(n) once; Step(0) once runs
// the whole workflow. Checkpoint/Restore serialize the dynamic loop
// state so a budgeted run survives process restarts; a MatchObserver streams
// phase progress and confirmed matches as they happen.

#ifndef MINOAN_CORE_SESSION_H_
#define MINOAN_CORE_SESSION_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>

#include "core/minoan_er.h"
#include "matching/matcher.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "progressive/resolver.h"
#include "util/status.h"

namespace minoan {

/// Streaming sink for session progress. Callbacks fire synchronously from
/// inside Open (phases) and Step (matches), in order; implementations must
/// not re-enter the session.
class MatchObserver {
 public:
  virtual ~MatchObserver() = default;
  /// A static pipeline phase finished (blocking, block-cleaning,
  /// meta-blocking, graph+evaluator — in that order, before any match).
  virtual void OnPhase(const PhaseStats& phase) { (void)phase; }
  /// A match was confirmed, stamped with the comparison count at discovery.
  virtual void OnMatch(const MatchEvent& event) { (void)event; }
};

/// A budgeted, checkpointable resolution over one finalized collection.
/// Movable; the collection is caller-owned and must outlive the session.
class ResolutionSession {
 public:
  /// Validates `options`, runs the static phases (blocking → cleaning →
  /// meta-blocking → graph/evaluator) and primes the progressive schedule.
  /// No comparison is executed yet.
  static Result<ResolutionSession> Open(const EntityCollection& collection,
                                        const WorkflowOptions& options,
                                        MatchObserver* observer = nullptr);

  /// Reopens a session from a Checkpoint stream. The collection and options
  /// must match the checkpointing session's (fingerprints are verified);
  /// the static phases' products are rebuilt deterministically and the loop
  /// state is restored, so stepping continues exactly where the saved run
  /// left off.
  static Result<ResolutionSession> Restore(const EntityCollection& collection,
                                           const WorkflowOptions& options,
                                           std::istream& in,
                                           MatchObserver* observer = nullptr);

  ResolutionSession(ResolutionSession&&) noexcept;
  ResolutionSession& operator=(ResolutionSession&&) noexcept;
  ~ResolutionSession();

  /// Spends up to `max_comparisons` more comparisons (0 = run until the
  /// workflow budget or the schedule is exhausted) and returns what this
  /// call produced. Stepping past exhaustion is a no-op.
  StepResult Step(uint64_t max_comparisons = 0);

  /// True once the schedule drained; the run is complete.
  bool exhausted() const;
  /// True once there is nothing left to spend: the schedule drained OR the
  /// overall workflow budget (progressive.matcher.budget, if any) was
  /// consumed. Use this — not exhausted() — as the condition of a "keep
  /// stepping" loop, or a budget-capped run will spin forever.
  bool finished() const;
  /// Comparisons executed so far across all Steps.
  uint64_t comparisons_spent() const;
  /// Matches confirmed so far across all Steps.
  uint64_t matches_found() const;
  /// Those matches, in confirmation order.
  const std::vector<MatchEvent>& matches() const;

  /// Serializes the session (collection fingerprint, options digest, static
  /// phase counters, full loop state) for a later Restore.
  Status Checkpoint(std::ostream& out) const;

  /// Assembles the ResolutionReport of the work done so far: after Step(0)
  /// it is the report of the whole workflow. Callable at any point of the
  /// run.
  ResolutionReport Report() const;

  /// Everything this session observed so far: per-phase wall times, the
  /// progressive-quality curve, thread-pool utilization, peak RSS, and the
  /// merged metrics-registry snapshot. Callable at any point of the run.
  obs::StatsReport Stats() const;

  /// Writes Stats() as the flat "minoan-stats-v1" JSON (the --metrics-out
  /// file; see obs/report.h).
  void WriteStatsJson(std::ostream& out) const;

  /// Writes the recorded phase spans as Chrome-trace JSON (loadable in
  /// chrome://tracing / ui.perfetto.dev). An empty-but-valid trace when the
  /// session ran without options.obs.enable_trace.
  void WriteTraceJson(std::ostream& out) const;

  const WorkflowOptions& options() const;
  const EntityCollection& collection() const;

 private:
  struct Impl;
  explicit ResolutionSession(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace minoan

#endif  // MINOAN_CORE_SESSION_H_
