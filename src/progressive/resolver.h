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
// The resolver is the one engine of that loop. Its batch driver
// (ResolutionSession) calls Begin() to ingest the candidate schedule, then
// Step(n) to spend up to n more comparisons; the loop state persists
// between calls, so Step(n/2) twice is byte-identical to Step(n). Its
// online driver (OnlineResolver) feeds an empty run pair by pair through
// the loop operations below, then steps it the same way. The corpus is
// read through a ResolutionSource (progressive/state.h). SaveState writes
// the batch checkpoint (MNER-PROG-v1); the online driver writes its own
// (MNER-ONLN-v2) from the same slots, merge log and run record.

#ifndef MINOAN_PROGRESSIVE_RESOLVER_H_
#define MINOAN_PROGRESSIVE_RESOLVER_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <utility>
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
  /// Worker threads for the batch-parallel setup phase (installing the
  /// initial candidates, scoring them against the pristine state, and
  /// sorting the primed run); the iterative schedule/match/update loop
  /// itself is inherently sequential. 1 = inline (default), 0 = hardware
  /// concurrency. Results are identical for every value.
  uint32_t num_threads = 1;
};

/// Outcome of a progressive run.
struct ProgressiveResult {
  ResolutionRun run;
  /// Cumulative realized benefit after each match (parallel to run.matches).
  std::vector<double> benefit_trace;
  /// Pairs scheduled purely by the update phase (absent from blocking),
  /// each counted once, when the update phase creates its slot.
  uint64_t discovered_pairs = 0;
  /// Matches on pairs blocking never produced (slots not marked
  /// `candidate` when executed).
  uint64_t discovered_matches = 0;
  /// Matches that needed neighbor evidence to clear the threshold (profile
  /// similarity alone was below it).
  uint64_t evidence_assisted_matches = 0;
  /// Scheduling overhead: total schedule pushes (primed candidates
  /// included).
  uint64_t scheduler_pushes = 0;
};

class ThreadPool;

/// The batch ResolutionSource: a frozen NeighborGraph and the evaluator's
/// profile arena.
class BatchSource final : public ResolutionSource {
 public:
  BatchSource(const NeighborGraph& graph, const SimilarityEvaluator& evaluator)
      : graph_(&graph), evaluator_(&evaluator) {}

  std::span<const EntityId> Neighbors(EntityId e) const override {
    if (e >= graph_->num_entities()) return {};
    return graph_->Neighbors(e);
  }
  double Similarity(EntityId a, EntityId b) override {
    return evaluator_->Similarity(a, b);
  }

 private:
  const NeighborGraph* graph_;
  const SimilarityEvaluator* evaluator_;
};

/// One cluster merge of the resolution — a seed or a match — with its
/// arguments in call order (RecordMatch's union-find layout depends on it).
using MergeOp = std::pair<EntityId, EntityId>;

/// Drives the scheduling / matching / update loop over one collection.
class ProgressiveResolver {
 public:
  /// Streaming sink for confirmed matches (invoked in discovery order,
  /// synchronously from within Step).
  using MatchCallback = std::function<void(const MatchEvent&)>;

  /// Batch engine over a frozen graph and evaluator (a BatchSource).
  /// `pool` (optional, caller-owned, must outlive the resolver) serves the
  /// batch-parallel setup phase; without it a transient pool is spawned
  /// when options.num_threads calls for one.
  ProgressiveResolver(const EntityCollection& collection,
                      const NeighborGraph& graph,
                      const SimilarityEvaluator& evaluator,
                      ProgressiveOptions options, ThreadPool* pool = nullptr);

  /// Engine over any source (caller-owned, must outlive the resolver).
  ProgressiveResolver(const EntityCollection& collection,
                      ResolutionSource& source, ProgressiveOptions options,
                      ThreadPool* pool = nullptr);

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

  /// True after Begin/LoadState/Restore.
  bool begun() const { return begun_; }
  /// True once a Step drained the schedule (further Steps are no-ops until
  /// something is scheduled again, which only the online driver does).
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

  /// Installs a decoded checkpoint of either format: the slots with their
  /// primed live schedule, the merge log (replayed into a fresh cluster
  /// state — RecordMatch is deterministic in call order), and the run
  /// record. The run is begun afterwards.
  void Restore(ComparisonScheduler scheduler, std::vector<MergeOp> merges,
               ProgressiveResult result, double cumulative_benefit,
               bool exhausted);

  // --- Loop operations ------------------------------------------------------
  // The steps Begin and Step are made of, for a driver that feeds the run
  // pair by pair (the online engine). Each requires a begun run.

  /// Slot of `pair`; a new one is appended on first sight and reported to
  /// the source.
  uint32_t SlotFor(uint64_t pair);
  ScheduleSlot& slot(uint32_t id) { return scheduler_.slot(id); }
  const ComparisonScheduler& scheduler() const { return scheduler_; }

  /// Prices slot `id` against the current state and schedules it.
  void Schedule(uint32_t id);

  /// Prices every slot of `ids` and primes the (empty) schedule with them.
  /// It runs on the caller's pool, or on a transient one for 2048 or more
  /// slots, when options.num_threads > 1, as Begin's install and pricing do.
  /// Safe to fan out only while no merge is recorded: every cluster is then
  /// a singleton and pricing only reads. Scores land in a per-index array,
  /// and pop order depends only on (priority, pair), so the schedule is the
  /// same for every thread count.
  void ScoreAndPrime(std::span<const uint32_t> ids);

  /// Applies the trusted equivalence (a, b) at zero budget cost, unless the
  /// pair was executed already: it is marked executed, merged in the
  /// cluster state and propagated through the update phase.
  void ApplySeed(EntityId a, EntityId b);

  /// Executes not-yet-executed slot `id`: erases it from the schedule,
  /// scores it, and on a match records it and runs the update phase.
  /// Returns the evidence updates the match made.
  uint64_t Execute(uint32_t id);

  ResolutionState& state() { return *state_; }
  /// Every seed and match in call order.
  const std::vector<MergeOp>& merges() const { return merges_; }

 private:
  /// Priority of slot `id` against the current state: (blocking likelihood
  /// + capped evidence term) × (1 + benefit_weight · marginal benefit).
  double Priority(uint32_t id) const;
  /// The same for a pair with the given likelihood and evidence.
  double Priority(uint64_t pair, double likelihood, double evidence) const;
  /// Merges (a, b) in the cluster state and appends it to the merge log.
  void RecordMerge(EntityId a, EntityId b);
  /// Raises the evidence of (a, b)'s neighbor pairs and re-prioritizes
  /// them; returns how many it raised.
  uint64_t UpdatePhase(EntityId a, EntityId b);

  const EntityCollection* collection_;
  /// The BatchSource the graph + evaluator constructor builds.
  std::unique_ptr<BatchSource> owned_source_;
  ResolutionSource* source_;  // not owned unless owned_source_ holds it
  ProgressiveOptions options_;
  BenefitEstimator estimator_;
  ThreadPool* pool_;  // optional, not owned
  MatchCallback on_match_;
  obs::ProgressMeter* progress_ = nullptr;  // optional, not owned

  // Loop state (reset by Begin, serialized by the drivers). The scheduler's
  // slots hold every pair's likelihood, evidence, executed flag and
  // priority; serialization canonicalizes to ascending-pair order, so the
  // slot layout never shows in checkpoint bytes.
  std::unique_ptr<ResolutionState> state_;
  ComparisonScheduler scheduler_;
  ProgressiveResult result_;
  std::vector<MergeOp> merges_;
  /// Pairs every update phase so far considered (observability only: not
  /// checkpointed; Step reports its own share).
  uint64_t update_fanout_ = 0;
  double cumulative_benefit_ = 0.0;
  bool begun_ = false;
  bool exhausted_ = false;
};

/// Writes the sections both checkpoint formats (MNER-PROG-v1, MNER-ONLN-v2)
/// share, in this order and in util/serde.h encoding: the live schedule
/// (u64 count, then u64 pair and f64 priority per live slot in ascending
/// pair order — `by_pair` is scheduler.SlotsByPair()), the u64 push
/// counter, a merge log (u64 count, then u32 a and u32 b per merge) and the
/// run record (u64 comparisons executed, u64 count, then u64
/// comparisons_done, u32 a, u32 b and f64 similarity per match).
void WriteLoopSections(std::ostream& out, const ComparisonScheduler& scheduler,
                       const std::vector<uint32_t>& by_pair,
                       std::span<const MergeOp> merges,
                       const ResolutionRun& run);

/// Reads those sections back, accepting only the canonical form with every
/// entity id below `num_entities`. `scheduler` holds the loaded slots
/// already; each live pair must be one of them, not yet executed, and the
/// live list primes its schedule.
bool ReadLoopSections(std::istream& in, uint32_t num_entities,
                      ComparisonScheduler& scheduler,
                      std::vector<MergeOp>& merges, ResolutionRun& run);

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_RESOLVER_H_
