// Copyright 2026 The MinoanER Authors.
// OnlineResolver: the long-running, updatable progressive resolution engine.
//
// The batch pipeline runs schedule → match → update until a budget is spent,
// then throws its state away. The online engine keeps that state alive and
// exposes three operations a service can interleave freely:
//
//   Ingest(kb, triples)   — absorb one new entity description: assign a
//                           dense id, index it, and push only the *delta*
//                           candidate comparisons it creates (plus, when
//                           enabled, its trusted owl:sameAs links as
//                           zero-cost warm seeds).
//   ResolveBudget(n)      — spend up to n comparisons now, highest priority
//                           first, exactly like the batch resolver's loop;
//                           fully resumable: two calls of n/2 execute the
//                           same schedule as one call of n.
//   Query(e, k)           — on-demand top-k match candidates for one
//                           entity: its pending comparisons are executed
//                           first (prioritized ahead of the global queue),
//                           then all known candidates are ranked by current
//                           similarity. Idempotent between mutations.
//
// Priorities, neighbor-evidence propagation, and the staleness rule follow
// ProgressiveResolver; likelihoods come from the incremental block index's
// key-set Jaccard instead of a global meta-blocking pass, since a global
// pruning graph is unavailable under insertions.

#ifndef MINOAN_ONLINE_ONLINE_RESOLVER_H_
#define MINOAN_ONLINE_ONLINE_RESOLVER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "online/incremental_block_index.h"
#include "online/incremental_collection.h"
#include "progressive/benefit.h"
#include "progressive/evidence_options.h"
#include "progressive/scheduler.h"
#include "progressive/state.h"
#include "progressive/step_core.h"
#include "util/status.h"

namespace minoan {
namespace online {

/// Online engine configuration. Defaults mirror the batch Web-of-Data
/// defaults where a counterpart exists.
struct OnlineOptions {
  CollectionOptions collection;
  OnlineBlockingOptions blocking;
  /// Match threshold; the `budget` field is ignored (budgets are per
  /// ResolveBudget call).
  MatcherOptions matcher;
  SimilarityOptions similarity;
  BenefitModel benefit = BenefitModel::kQuantity;
  double benefit_weight = 1.0;
  /// Evidence-propagation knobs, shared with ProgressiveOptions.
  EvidenceOptions evidence;
  /// Treat ingested owl:sameAs links as trusted zero-cost matches.
  bool use_same_as_seeds = false;
  /// Worker threads for the warm-start bulk scoring pass (the one
  /// batch-shaped stage of the online engine: pricing every initial
  /// candidate pair against the pristine state). The ingest/resolve/query
  /// loop itself is inherently sequential. 1 = inline (default),
  /// 0 = hardware concurrency. Results are identical for every value.
  uint32_t num_threads = 1;
};

/// Outcome of one ResolveBudget call — the same pay-as-you-go currency the
/// batch ResolutionSession returns from Step.
using OnlineStepResult = ::minoan::StepResult;

/// One ranked candidate returned by Query.
struct QueryCandidate {
  EntityId id;
  /// Profile similarity plus current neighbor-evidence bonus.
  double similarity;
  /// Already resolved into the query entity's cluster.
  bool matched;
};

class OnlineResolver {
 public:
  explicit OnlineResolver(OnlineOptions options = {});

  /// Warm start from a finalized batch collection: every existing entity is
  /// indexed (producing the full batch candidate set) before the engine
  /// accepts new ones.
  OnlineResolver(OnlineOptions options, EntityCollection&& warm);

  /// Reopens an engine from a SaveState stream. `options` must be the
  /// options the saving engine ran with (digest verified). For current (v2)
  /// states `warm` is superseded by the collection embedded in the stream;
  /// for legacy v1 states it must be the exact snapshot the saving engine
  /// held (entity/KB/triple counts are verified). Unlike the warm
  /// constructor nothing is re-indexed or re-scored: the incremental index,
  /// the per-pair slots, the schedule, and the cluster state all come from
  /// the stream, so resolution (and further ingests) continue exactly where
  /// the saved engine stopped — byte-identically.
  static Result<std::unique_ptr<OnlineResolver>> Restore(
      OnlineOptions options, EntityCollection&& warm, std::istream& in);

  /// Self-contained restore: the collection snapshot is read from the
  /// stream itself (SaveState serializes it since MNER-ONLN-v2), so the
  /// caller supplies nothing but the original options. Rejects v1 states —
  /// those carry no collection and need the overload above.
  static Result<std::unique_ptr<OnlineResolver>> Restore(
      OnlineOptions options, std::istream& in);

  /// Pinned: state_ holds the addresses of coll_'s collection and
  /// neighbors_, so a compiler-generated move would leave it dangling.
  OnlineResolver(const OnlineResolver&) = delete;
  OnlineResolver& operator=(const OnlineResolver&) = delete;
  OnlineResolver(OnlineResolver&&) = delete;
  OnlineResolver& operator=(OnlineResolver&&) = delete;

  /// Finds or creates a knowledge base by name.
  uint32_t EnsureKb(std::string_view name) { return coll_.EnsureKb(name); }

  /// Ingests one entity (triples sharing a single subject). Returns its id.
  Result<EntityId> Ingest(uint32_t kb_id,
                          const std::vector<rdf::Triple>& triples);

  /// Executes up to `max_comparisons` scheduled comparisons.
  OnlineStepResult ResolveBudget(uint64_t max_comparisons);

  /// Executes every pending comparison involving `id` (and any its matches
  /// discover for it), then returns the top-k candidates by similarity
  /// (ties broken by ascending id). Empty for unknown ids or k == 0.
  std::vector<QueryCandidate> Query(EntityId id, uint32_t k);

  /// Serializes the full engine state — the collection snapshot itself
  /// (MNER-ONLN-v2; restores are self-contained), the incremental index
  /// (postings + watermarks + emitted pairs), per-pair state, schedule,
  /// neighbor/partner adjacencies, the cluster-merge log, and the run
  /// record — in the fixed little-endian util/serde.h format, for a later
  /// Restore.
  Status SaveState(std::ostream& out) const;

  /// Restores a SaveState stream into this engine, replacing its dynamic
  /// state. The engine's collection must match the saving engine's. On
  /// failure the engine is left half-overwritten and must be discarded —
  /// never resume a live engine from an unverified stream directly; use
  /// the static Restore, which discards the engine when loading fails.
  Status LoadState(std::istream& in);

  // --- Introspection ------------------------------------------------------

  const EntityCollection& collection() const { return coll_.collection(); }
  /// Cumulative run record (comparisons from ResolveBudget AND Query).
  const ResolutionRun& run() const { return run_; }
  size_t pending_comparisons() const { return scheduler_.live_size(); }
  uint64_t discovered_pairs() const { return discovered_pairs_; }
  uint64_t evidence_assisted_matches() const {
    return evidence_assisted_matches_;
  }
  uint64_t candidate_pairs_created() const {
    return index_.num_pairs_emitted();
  }
  ResolutionState& state() { return *state_; }
  const OnlineOptions& options() const { return options_; }

 private:
  /// Restore path: adopts `warm` without indexing or scoring anything —
  /// LoadState fills every structure from the stream instead.
  struct RestoreTag {};
  OnlineResolver(OnlineOptions options, EntityCollection&& warm, RestoreTag);
  /// Self-contained restore path: starts from an empty store; LoadState
  /// reads the embedded (v2) collection along with the dynamic state.
  OnlineResolver(OnlineOptions options, RestoreTag);

  void IndexEntity(EntityId id);
  /// Scores the pairs IndexEntity deferred during warm-start bulk indexing
  /// and primes the schedule with them. Safe to fan out: the state is
  /// pristine (no match recorded before the seeds consume below), so
  /// priorities are pure reads; scores land in a per-index array, and pop
  /// order depends only on (priority, pair) — the schedule is identical to
  /// interleaved sequential pushes for every thread count.
  void FlushDeferredScores();
  /// Applies any not-yet-consumed ingested owl:sameAs links as zero-cost
  /// trusted matches (no-op unless use_same_as_seeds).
  void ConsumeSameAsSeeds();
  /// Finds or creates the pair's slot; on creation registers the two
  /// entities as each other's partners. `created` (optional) reports
  /// whether this was the pair's first sighting.
  uint32_t PairRef(uint64_t pair, bool* created = nullptr);
  /// Priority of slot `id` against the current state (SlotPriority).
  double Priority(uint32_t id) const;
  /// Entity e's profile view with the current (possibly grown) vocabulary,
  /// its weights written to `weights`.
  ProfileView View(EntityId e, std::vector<double>& weights) const;
  /// Profile similarity of a (view built by the caller, so ranking loops
  /// over one entity's partners build it once) and b. `a` must not point
  /// into weights_b_, where b's view is built.
  double SimilarityTo(const ProfileView& a, EntityId b);
  /// Executes one not-yet-executed comparison; records a match and runs the
  /// update phase when the threshold clears. Returns the evidence updates
  /// that made.
  uint64_t ExecuteComparison(uint32_t id);
  /// Raises the evidence of (a, b)'s neighbor pairs and re-prioritizes
  /// them; returns how many it raised.
  uint64_t UpdatePhase(EntityId a, EntityId b);
  /// Merges (a, b) in the cluster state AND appends the operation to the
  /// replay log — RecordMatch's internal layout depends on call order, so
  /// LoadState replays the exact sequence to reproduce it byte for byte.
  void RecordClusterMerge(EntityId a, EntityId b);

  OnlineOptions options_;
  IncrementalCollection coll_;
  IncrementalBlockIndex index_;
  BenefitEstimator estimator_;
  std::unique_ptr<ResolutionState> state_;
  /// Every known pair's likelihood, evidence, executed flag and priority,
  /// in dense slots; SaveState sorts them into ascending-pair order before
  /// writing, so the layout has no bytes-on-disk effect.
  ComparisonScheduler scheduler_;

  /// Incremental undirected adjacency over relation edges (the online
  /// counterpart of NeighborGraph, growable per ingest).
  std::vector<std::vector<EntityId>> neighbors_;
  /// Every entity this entity shares a known candidate pair with, in
  /// first-seen order (drives Query).
  std::vector<std::vector<EntityId>> partners_;

  ResolutionRun run_;
  uint64_t discovered_pairs_ = 0;
  uint64_t evidence_assisted_matches_ = 0;
  size_t same_as_consumed_ = 0;

  /// Every cluster merge (seeds and matches alike) in call order — the
  /// checkpointable essence of the union-find state.
  std::vector<std::pair<EntityId, EntityId>> cluster_ops_;

  /// Warm-start bulk indexing: when set, IndexEntity records new slots here
  /// instead of scoring them one by one; FlushDeferredScores prices the
  /// whole batch (in parallel when options_.num_threads allows).
  bool defer_scoring_ = false;
  std::vector<uint32_t> deferred_slots_;

  // Scratch buffers (ingest + similarity), reused across calls: the
  // weights behind the two profile views of the pair being compared.
  std::vector<DeltaPair> delta_scratch_;
  std::vector<double> weights_a_;
  std::vector<double> weights_b_;
};

}  // namespace online
}  // namespace minoan

#endif  // MINOAN_ONLINE_ONLINE_RESOLVER_H_
