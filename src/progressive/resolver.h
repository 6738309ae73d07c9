// Copyright 2026 The MinoanER Authors.
// The progressive resolver — MinoanER's core contribution (Figure 1).
//
// Implements the iterative workflow the poster describes:
//
//   Scheduling:  candidate comparisons (from blocking + meta-blocking) are
//                prioritized by likelihood × marginal benefit, so "those
//                comparisons are executed before less promising ones and
//                thus, higher benefit is provided early on in the process".
//   Matching:    the top comparison is executed; profile similarity plus any
//                accumulated neighbor evidence decides the match.
//   Update:      "propagates the results of matching, such that a new
//                scheduling phase will promote the comparison of pairs that
//                were influenced by the previous matches" — every neighbor
//                pair of a confirmed match gains similarity evidence, gets
//                (re)prioritized, and pairs blocking never produced are
//                *discovered* as new candidates. This is how "somehow
//                similar" descriptions with few common tokens are resolved.
//   Budget:      "this iterative process continues until the cost budget is
//                consumed" — the budget is a comparison count (similarity
//                evaluations), the standard cost unit of progressive ER.
//
// The resolver is a stateful begin/step core: Begin() ingests the candidate
// schedule, Step(n) spends up to n more comparisons, and the loop state
// (scheduler, evidence, partial clusters) persists between calls, so
// Step(n/2) twice is byte-identical to Step(n); Begin + Step(0) runs to
// completion. SaveState/LoadState round-trip the loop state for
// checkpointable sessions (core/session.h).

#ifndef MINOAN_PROGRESSIVE_RESOLVER_H_
#define MINOAN_PROGRESSIVE_RESOLVER_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "kb/collection.h"
#include "kb/neighbor_graph.h"
#include "matching/matcher.h"
#include "obs/progress.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking_types.h"
#include "progressive/benefit.h"
#include "progressive/evidence_options.h"
#include "progressive/scheduler.h"
#include "progressive/state.h"
#include "progressive/step_core.h"
#include "util/status.h"

namespace minoan {

/// Progressive-resolution configuration.
struct ProgressiveOptions {
  BenefitModel benefit = BenefitModel::kQuantity;
  /// Strength of the benefit multiplier in the priority (0 = pure
  /// likelihood ordering).
  double benefit_weight = 1.0;
  /// Match decision threshold and comparison budget (0 = unlimited).
  MatcherOptions matcher;
  /// Master switch of the update phase (T6 ablation).
  bool enable_update_phase = true;
  /// Evidence-propagation knobs, shared with the online engine.
  EvidenceOptions evidence;
  ResolutionMode mode = ResolutionMode::kCleanClean;
  /// Worker threads for the batch-parallel setup phase (scoring the initial
  /// candidates against the pristine state); the iterative schedule/match/
  /// update loop itself is inherently sequential. 1 = inline (default),
  /// 0 = hardware concurrency. Results are identical for every value.
  uint32_t num_threads = 1;
};

/// Outcome of a progressive run.
struct ProgressiveResult {
  ResolutionRun run;
  /// Cumulative realized benefit after each match (parallel to run.matches).
  std::vector<double> benefit_trace;
  /// Pairs scheduled purely by the update phase (absent from blocking).
  uint64_t discovered_pairs = 0;
  /// ... of which were confirmed as matches.
  uint64_t discovered_matches = 0;
  /// Matches that needed neighbor evidence to clear the threshold (profile
  /// similarity alone was below it).
  uint64_t evidence_assisted_matches = 0;
  /// Scheduling overhead: total schedule pushes (primed candidates
  /// included).
  uint64_t scheduler_pushes = 0;
};

class ThreadPool;

/// Drives the scheduling / matching / update loop over one collection.
class ProgressiveResolver {
 public:
  /// Streaming sink for confirmed matches (invoked in discovery order,
  /// synchronously from within Step).
  using MatchCallback = std::function<void(const MatchEvent&)>;

  /// `pool` (optional, caller-owned, must outlive the resolver) serves the
  /// batch-parallel setup phase; without it a transient pool is spawned
  /// when options.num_threads calls for one.
  ProgressiveResolver(const EntityCollection& collection,
                      const NeighborGraph& graph,
                      const SimilarityEvaluator& evaluator,
                      ProgressiveOptions options, ThreadPool* pool = nullptr);

  // --- Stateful pay-as-you-go interface -----------------------------------

  /// Initializes a resolution from the given candidates (meta-blocking
  /// output: weighted comparisons; weights are normalized to [0, 1]
  /// likelihoods) plus optional warm-start seeds. Seeds are trusted
  /// equivalences known before matching — existing owl:sameAs interlinks,
  /// or the output of a previous pay-as-you-go session. They are recorded
  /// into the resolution state at zero budget cost and propagated through
  /// the update phase, so their neighborhoods are prioritized from the
  /// first comparison on. Seeds do not appear among the matches (they were
  /// not discovered by this run). Resets any previous run.
  void Begin(const std::vector<WeightedComparison>& candidates,
             const std::vector<Comparison>& seeds = {});

  /// Spends up to `max_comparisons` more comparisons (0 = until the overall
  /// options budget or the queue is exhausted). Resumable: Step(n/2) twice
  /// executes the byte-identical schedule as Step(n) once.
  StepResult Step(uint64_t max_comparisons);

  /// True after Begin/LoadState.
  bool begun() const { return begun_; }
  /// True once the schedule drained (further Steps are no-ops).
  bool exhausted() const { return exhausted_; }
  /// True once the overall options budget (matcher.budget, if any) is
  /// spent. Distinct from exhausted(): the queue may still hold work.
  bool budget_spent() const {
    return options_.matcher.budget != 0 &&
           result_.run.comparisons_executed >= options_.matcher.budget;
  }
  /// Nothing left to spend: queue drained OR overall budget consumed.
  /// The correct condition for "keep stepping" loops.
  bool finished() const { return exhausted_ || budget_spent(); }
  /// Cumulative outcome of every Step so far.
  const ProgressiveResult& result() const { return result_; }

  /// Installs (or clears) the streaming match sink.
  void set_match_callback(MatchCallback callback) {
    on_match_ = std::move(callback);
  }

  /// Installs (or clears) the progressive-quality sampler (caller-owned,
  /// must outlive the resolver). Observational only: the meter sees the
  /// cumulative (comparisons, matches) totals after every executed
  /// comparison and never influences scheduling.
  void set_progress_meter(obs::ProgressMeter* meter) { progress_ = meter; }

  // --- Checkpoint / restore ------------------------------------------------

  /// Serializes the complete loop state (schedule, evidence, executed set,
  /// partial result). Requires an active run (Begin was called). The
  /// collection/graph/evaluator are NOT serialized — a restoring process
  /// rebuilds them deterministically and calls LoadState.
  Status SaveState(std::ostream& out) const;

  /// Restores the loop state saved by SaveState against the same collection;
  /// stepping then continues exactly where the saved run left off.
  Status LoadState(std::istream& in);

 private:
  /// Priority of slot `id` against the current state (SlotPriority).
  double Priority(uint32_t id) const;
  /// Runs one comparison; returns the evidence updates its match made.
  uint64_t ExecuteComparison(uint32_t id);
  /// Raises the evidence of (a, b)'s neighbor pairs and re-prioritizes
  /// them; returns how many it raised.
  uint64_t UpdatePhase(EntityId a, EntityId b);
  /// Feeds the installed progress meter the post-comparison totals.
  void SampleProgress();

  const EntityCollection* collection_;
  const NeighborGraph* graph_;
  const SimilarityEvaluator* evaluator_;
  ProgressiveOptions options_;
  BenefitEstimator estimator_;
  ThreadPool* pool_;  // optional, not owned
  MatchCallback on_match_;
  obs::ProgressMeter* progress_ = nullptr;  // optional, not owned

  // Loop state (reset by Begin, serialized by SaveState). The scheduler's
  // slots hold every pair's likelihood, evidence, executed flag and
  // priority; serialization canonicalizes to ascending-pair order, so the
  // slot layout never shows in checkpoint bytes.
  std::unique_ptr<ResolutionState> state_;
  ComparisonScheduler scheduler_;
  ProgressiveResult result_;
  /// Seeds actually applied by Begin (deduplicated), kept for state replay
  /// on restore.
  std::vector<Comparison> seeds_;
  double cumulative_benefit_ = 0.0;
  bool begun_ = false;
  bool exhausted_ = false;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_RESOLVER_H_
