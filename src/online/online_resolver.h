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
// The online engine is a driver of the one progressive engine
// (ProgressiveResolver, progressive/resolver.h), as the batch
// ResolutionSession is: priorities, matching, neighbor-evidence
// propagation, seeds, the staleness rule and the stepping loop are the
// engine's. The driver supplies what differs — an OnlineSource over the
// growable corpus, and likelihoods from the incremental block index's
// key-set Jaccard instead of a global meta-blocking pass, since a global
// pruning graph is unavailable under insertions.

#ifndef MINOAN_ONLINE_ONLINE_RESOLVER_H_
#define MINOAN_ONLINE_ONLINE_RESOLVER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "online/incremental_block_index.h"
#include "online/incremental_collection.h"
#include "progressive/benefit.h"
#include "progressive/evidence_options.h"
#include "progressive/resolver.h"
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

/// The online engine's ResolutionSource: neighbors from an undirected
/// adjacency over relation edges that grows with every ingest, similarity
/// from profile views built at the collection's current idf, and every new
/// pair slot registered with both entities as query partners.
class OnlineSource final : public ResolutionSource {
 public:
  OnlineSource(const EntityCollection& collection,
               SimilarityOptions similarity)
      : collection_(&collection), similarity_(similarity) {}

  std::span<const EntityId> Neighbors(EntityId e) const override;
  double Similarity(EntityId a, EntityId b) override;
  void OnSlotCreated(uint64_t pair) override;

  /// Covers every entity of the collection and adds `id`'s relation edges.
  void AddEntity(EntityId id);

  /// Entities `e` (below partner_lists()) shares a known pair with, in
  /// first-seen order.
  const std::vector<EntityId>& partners(EntityId e) const {
    return partners_[e];
  }
  size_t partner_lists() const { return partners_.size(); }

  /// Entity e's view with the current vocabulary, its weights written to
  /// `weights`.
  ProfileView View(EntityId e, std::vector<double>& weights) const;
  /// Profile similarity of view `a` (which must not point into the
  /// source's own scratch weights) and entity b.
  double SimilarityTo(const ProfileView& a, EntityId b);

  /// The adjacency and partner lists, verbatim: the update phase truncates
  /// to the first max_neighbors_per_side entries and Query drains partners
  /// in order, so insertion order is part of the state.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in, uint32_t num_entities);

 private:
  const EntityCollection* collection_;
  SimilarityOptions similarity_;
  std::vector<std::vector<EntityId>> neighbors_;
  std::vector<std::vector<EntityId>> partners_;
  /// Scratch weights behind the two profile views of the pair compared.
  std::vector<double> weights_a_;
  std::vector<double> weights_b_;
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

  /// Pinned: engine_ holds the addresses of coll_'s collection and
  /// source_, so a compiler-generated move would leave it dangling.
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
  /// Restore. The engine's benefit trace and discovered-match count are not
  /// part of the format; a restored engine restarts both from empty.
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
  const ResolutionRun& run() const { return engine_.result().run; }
  size_t pending_comparisons() const {
    return engine_.scheduler().live_size();
  }
  uint64_t discovered_pairs() const {
    return engine_.result().discovered_pairs;
  }
  uint64_t evidence_assisted_matches() const {
    return engine_.result().evidence_assisted_matches;
  }
  uint64_t candidate_pairs_created() const {
    return index_.num_pairs_emitted();
  }
  ResolutionState& state() { return engine_.state(); }
  const OnlineOptions& options() const { return options_; }

 private:
  /// Builds the members only, with no run begun: adopts `warm` without
  /// indexing or scoring anything (the restore path, where LoadState fills
  /// every structure from the stream instead).
  struct RestoreTag {};
  OnlineResolver(OnlineOptions options, EntityCollection&& warm, RestoreTag);
  /// The same over an empty store; LoadState reads the embedded (v2)
  /// collection along with the dynamic state.
  OnlineResolver(OnlineOptions options, RestoreTag);

  /// Indexes entity `id` and schedules the candidate pairs it creates —
  /// or, when `deferred` is given (warm-start bulk indexing), appends
  /// their slots there for one ScoreAndPrime pass.
  void IndexEntity(EntityId id, std::vector<uint32_t>* deferred = nullptr);
  /// Applies any not-yet-consumed ingested owl:sameAs links as zero-cost
  /// trusted matches (no-op unless use_same_as_seeds).
  void ConsumeSameAsSeeds();

  OnlineOptions options_;
  IncrementalCollection coll_;
  IncrementalBlockIndex index_;
  OnlineSource source_;
  ProgressiveResolver engine_;
  size_t same_as_consumed_ = 0;

  // Scratch (ingest + ranking), reused across calls.
  std::vector<DeltaPair> delta_scratch_;
  std::vector<double> query_weights_;
};

}  // namespace online
}  // namespace minoan

#endif  // MINOAN_ONLINE_ONLINE_RESOLVER_H_
