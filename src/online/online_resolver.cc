#include "online/online_resolver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {
namespace online {

namespace {

/// Format tags of the serialized engine state; bump on layout changes.
/// v1: dynamic state only — Restore needs the caller to rebuild the exact
///     collection snapshot. Still loadable (golden blobs, old checkpoints).
/// v2: v1 plus the serialized IncrementalCollection right after the header,
///     so a v2 stream restores self-contained. The dynamic-state sections
///     are byte-identical to v1's.
constexpr std::string_view kOnlineStateMagicV1 = "MNER-ONLN-v1";
constexpr std::string_view kOnlineStateMagicV2 = "MNER-ONLN-v2";

uint64_t MixU(uint64_t seed, uint64_t v) { return HashCombine(seed, v); }
uint64_t MixD(uint64_t seed, double v) {
  return HashCombine(seed, std::bit_cast<uint64_t>(v));
}

/// Digest of every option that shapes the online resolution trajectory; a
/// restored engine must step identically to the saving one, so mismatched
/// options are rejected instead of silently diverging.
uint64_t OnlineOptionsDigest(const OnlineOptions& o) {
  uint64_t h = Fnv1a64("minoan-online-options");
  h = MixD(h, o.matcher.threshold);
  h = MixU(h, static_cast<uint64_t>(o.benefit));
  h = MixD(h, o.benefit_weight);
  h = MixD(h, o.evidence.increment);
  h = MixD(h, o.evidence.weight);
  h = MixD(h, o.evidence.priority);
  h = MixU(h, static_cast<uint64_t>(o.evidence.max_neighbors_per_side));
  h = MixD(h, o.evidence.staleness_tolerance);
  h = MixU(h, static_cast<uint64_t>(o.use_same_as_seeds));
  h = MixU(h, static_cast<uint64_t>(o.similarity.use_tfidf));
  h = MixD(h, o.similarity.tfidf_weight);
  h = MixU(h, static_cast<uint64_t>(o.blocking.use_token_keys));
  h = MixD(h, o.blocking.token.max_df_fraction);
  h = MixU(h, o.blocking.token.min_df);
  h = MixU(h, static_cast<uint64_t>(o.blocking.use_pis_keys));
  h = MixU(h, static_cast<uint64_t>(o.blocking.pis.use_suffix));
  h = MixU(h, static_cast<uint64_t>(o.blocking.pis.use_infix));
  h = MixU(h, static_cast<uint64_t>(o.blocking.pis.tokenize_suffix));
  h = MixU(h, o.blocking.pis.min_block_size);
  h = MixU(h, o.blocking.pis.max_block_size);
  h = MixU(h, static_cast<uint64_t>(o.blocking.mode));
  return h;
}

using serde::kMaxUpfrontReserve;

}  // namespace

OnlineResolver::OnlineResolver(OnlineOptions options)
    : options_(options),
      coll_(options.collection),
      index_(options.blocking),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side),
      state_(std::make_unique<ResolutionState>(coll_.collection(), nullptr)) {
  // Relationship-aware benefit models read neighbors from the growable
  // adjacency (there is no frozen NeighborGraph in online mode).
  state_->SetDynamicNeighbors(&neighbors_);
}

OnlineResolver::OnlineResolver(OnlineOptions options, EntityCollection&& warm)
    : options_(options),
      coll_(std::move(warm)),
      index_(options.blocking),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side),
      state_(std::make_unique<ResolutionState>(coll_.collection(), nullptr)) {
  state_->SetDynamicNeighbors(&neighbors_);
  const uint32_t n = coll_.num_entities();
  // Index sequentially (the incremental index mutates per entity), defer
  // the per-pair priority pricing, then score the whole batch at once —
  // in parallel when options_.num_threads allows, identically either way.
  defer_scoring_ = true;
  for (EntityId id = 0; id < n; ++id) IndexEntity(id);
  FlushDeferredScores();
  ConsumeSameAsSeeds();
}

OnlineResolver::OnlineResolver(OnlineOptions options, EntityCollection&& warm,
                               RestoreTag)
    : options_(options),
      coll_(std::move(warm)),
      index_(options.blocking),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side) {
  // Nothing indexed, scored, or clustered: LoadState supplies all of it
  // (including state_ — building one here would be discarded work).
}

OnlineResolver::OnlineResolver(OnlineOptions options, RestoreTag)
    : options_(options),
      coll_(options.collection),
      index_(options.blocking),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side) {
  // Self-contained restore: LoadState reads the embedded collection (v2)
  // and every dynamic structure from the stream.
}

Result<std::unique_ptr<OnlineResolver>> OnlineResolver::Restore(
    OnlineOptions options, EntityCollection&& warm, std::istream& in) {
  const uint32_t warm_entities = warm.num_entities();
  const uint32_t warm_kbs = warm.num_kbs();
  const uint64_t warm_triples = warm.total_triples();
  std::unique_ptr<OnlineResolver> resolver(
      new OnlineResolver(options, std::move(warm), RestoreTag{}));
  MINOAN_RETURN_IF_ERROR(resolver->LoadState(in));
  // v2 streams replace `warm` with the embedded collection, but a caller
  // snapshot that disagrees with the saved state still signals the caller
  // restored the wrong file — reject it rather than silently diverge from
  // what they believe the engine holds. (v1 verifies this inside LoadState.)
  const EntityCollection& c = resolver->collection();
  if (c.num_entities() != warm_entities || c.num_kbs() != warm_kbs ||
      c.total_triples() != warm_triples) {
    return Status::InvalidArgument(
        "online state was saved over a different collection than the "
        "caller's snapshot");
  }
  return resolver;
}

Result<std::unique_ptr<OnlineResolver>> OnlineResolver::Restore(
    OnlineOptions options, std::istream& in) {
  std::unique_ptr<OnlineResolver> resolver(
      new OnlineResolver(options, RestoreTag{}));
  MINOAN_RETURN_IF_ERROR(resolver->LoadState(in));
  return resolver;
}

Result<EntityId> OnlineResolver::Ingest(
    uint32_t kb_id, const std::vector<rdf::Triple>& triples) {
  MINOAN_ASSIGN_OR_RETURN(EntityId id, coll_.Ingest(kb_id, triples));
  IndexEntity(id);
  ConsumeSameAsSeeds();
  static obs::Counter& ingested =
      obs::MetricsRegistry::Default().counter("online.ingested");
  ingested.Increment();
  return id;
}

uint32_t OnlineResolver::PairRef(uint64_t pair, bool* created) {
  bool inserted = false;
  const uint32_t id = scheduler_.FindOrAdd(pair, &inserted);
  if (inserted) {
    const EntityId a = PairKeyFirst(pair);
    const EntityId b = PairKeySecond(pair);
    partners_[a].push_back(b);
    partners_[b].push_back(a);
  }
  if (created != nullptr) *created = inserted;
  return id;
}

void OnlineResolver::IndexEntity(EntityId id) {
  const EntityCollection& c = collection();
  if (neighbors_.size() < c.num_entities()) {
    neighbors_.resize(c.num_entities());
    partners_.resize(c.num_entities());
  }
  state_->AddEntity(id);

  // Relation edges of the new entity extend the undirected adjacency; the
  // targets necessarily exist already (forward references degraded to
  // attributes during ingestion).
  for (const Relation& r : c.entity(id).relations) {
    if (r.target == id) continue;
    auto& mine = neighbors_[id];
    if (std::find(mine.begin(), mine.end(), r.target) == mine.end()) {
      mine.push_back(r.target);
      neighbors_[r.target].push_back(id);
    }
  }

  delta_scratch_.clear();
  index_.AddEntity(c, id, delta_scratch_);
  for (const DeltaPair& d : delta_scratch_) {
    const uint32_t slot_id = PairRef(PairKey(d.a, d.b));
    ScheduleSlot& slot = scheduler_.slot(slot_id);
    slot.likelihood = d.weight;
    // The update phase may have discovered and even executed this pair
    // before blocking produced it.
    if (slot.executed) continue;
    if (defer_scoring_) {
      deferred_slots_.push_back(slot_id);
      continue;
    }
    scheduler_.Push(slot_id, Priority(slot_id));
  }
}

void OnlineResolver::FlushDeferredScores() {
  defer_scoring_ = false;
  std::vector<double> priorities(deferred_slots_.size());
  const auto score = [&](size_t i) {
    priorities[i] = Priority(deferred_slots_[i]);
  };
  const uint32_t threads = ResolveThreadCount(options_.num_threads);
  if (threads > 1 && deferred_slots_.size() >= 2048) {
    ThreadPool pool(threads);
    pool.ParallelFor(deferred_slots_.size(), score);
  } else {
    for (size_t i = 0; i < deferred_slots_.size(); ++i) score(i);
  }
  scheduler_.Prime(std::move(deferred_slots_), priorities);
  deferred_slots_ = {};
}

void OnlineResolver::ConsumeSameAsSeeds() {
  const auto& links = collection().same_as_links();
  if (!options_.use_same_as_seeds) {
    same_as_consumed_ = links.size();
    return;
  }
  for (; same_as_consumed_ < links.size(); ++same_as_consumed_) {
    const SameAsLink link = links[same_as_consumed_];
    const uint32_t id = PairRef(PairKey(link.a, link.b));
    if (scheduler_.slot(id).executed) continue;
    scheduler_.slot(id).executed = true;
    scheduler_.Erase(id);
    RecordClusterMerge(link.a, link.b);
    UpdatePhase(link.a, link.b);
  }
}

void OnlineResolver::RecordClusterMerge(EntityId a, EntityId b) {
  // Raw (a, b) argument order, not the normalized pair: RecordMatch's
  // union-find layout depends on it, and the replay must be exact.
  cluster_ops_.emplace_back(a, b);
  state_->RecordMatch(a, b);
}

double OnlineResolver::Priority(uint32_t id) const {
  return SlotPriority(scheduler_.slot(id), estimator_, options_.benefit_weight,
                      options_.evidence, *state_);
}

ProfileView OnlineResolver::View(EntityId e,
                                 std::vector<double>& weights) const {
  return BuildProfileView(collection(), e, options_.similarity.use_tfidf,
                          weights);
}

double OnlineResolver::SimilarityTo(const ProfileView& a, EntityId b) {
  return ProfileSimilarity(a, View(b, weights_b_), options_.similarity);
}

uint64_t OnlineResolver::ExecuteComparison(uint32_t id) {
  // Copy what the match needs: the update phase may append slots.
  ScheduleSlot& slot = scheduler_.slot(id);
  slot.executed = true;
  const EntityId a = PairKeyFirst(slot.pair);
  const EntityId b = PairKeySecond(slot.pair);
  const double bonus = EvidenceBonus(slot, options_.evidence);
  scheduler_.Erase(id);
  ++run_.comparisons_executed;
  const double profile = SimilarityTo(View(a, weights_a_), b);
  const double sim = profile + bonus;
  if (sim < options_.matcher.threshold) return 0;

  RecordClusterMerge(a, b);
  run_.matches.push_back(MatchEvent{run_.comparisons_executed, a, b, sim});
  if (profile < options_.matcher.threshold) ++evidence_assisted_matches_;
  return UpdatePhase(a, b);
}

uint64_t OnlineResolver::UpdatePhase(EntityId a, EntityId b) {
  const auto& na = neighbors_[a];
  const auto& nb = neighbors_[b];
  const size_t la =
      std::min<size_t>(na.size(), options_.evidence.max_neighbors_per_side);
  const size_t lb =
      std::min<size_t>(nb.size(), options_.evidence.max_neighbors_per_side);
  const bool clean = options_.blocking.mode == ResolutionMode::kCleanClean;
  uint64_t updates = 0;
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      const EntityId x = na[i];
      const EntityId y = nb[j];
      if (x == y) continue;
      if (clean && !collection().CrossKb(x, y)) continue;
      const uint64_t pair = PairKey(x, y);
      if (state_->SameCluster(x, y)) continue;
      bool first_sighting = false;
      const uint32_t id = PairRef(pair, &first_sighting);
      ScheduleSlot& slot = scheduler_.slot(id);
      if (slot.executed) continue;
      slot.evidence += options_.evidence.increment;
      if (first_sighting) ++discovered_pairs_;
      ++updates;
      scheduler_.Push(id, Priority(id));
    }
  }
  return updates;
}

OnlineStepResult OnlineResolver::ResolveBudget(uint64_t max_comparisons) {
  OnlineStepResult out;
  // A zero budget spends nothing (the shared core treats 0 as "uncapped").
  if (max_comparisons == 0) return out;
  const size_t match_mark = run_.matches.size();
  const uint64_t discovered_mark = discovered_pairs_;
  out = RunScheduledComparisons(
      scheduler_, max_comparisons, options_.evidence.staleness_tolerance,
      /*should_stop=*/[] { return false; },
      /*current_priority=*/[&](uint32_t id) { return Priority(id); },
      /*execute=*/[&](uint32_t id) { return ExecuteComparison(id); });
  out.discovered_pairs = discovered_pairs_ - discovered_mark;
  out.matches.assign(run_.matches.begin() + match_mark, run_.matches.end());
  RecordLoopCounters(out);
  static obs::Counter& comparisons =
      obs::MetricsRegistry::Default().counter("online.resolve_comparisons");
  static obs::Counter& matches =
      obs::MetricsRegistry::Default().counter("online.resolve_matches");
  comparisons.Add(out.comparisons);
  matches.Add(out.matches.size());
  return out;
}

std::vector<QueryCandidate> OnlineResolver::Query(EntityId id, uint32_t k) {
  static obs::Counter& queries =
      obs::MetricsRegistry::Default().counter("online.queries");
  queries.Increment();
  std::vector<QueryCandidate> out;
  if (k == 0 || id >= partners_.size()) return out;

  // Drain the entity's pending comparisons first — including any its own
  // matches discover for it mid-loop (partners_[id] may grow; indexing by
  // position covers the appended tail).
  for (size_t i = 0; i < partners_[id].size(); ++i) {
    // Every partner pair has a slot: PairRef registers both together.
    const uint32_t slot = scheduler_.Find(PairKey(id, partners_[id][i]));
    if (!scheduler_.slot(slot).executed) ExecuteComparison(slot);
  }

  // Rank with the query side's view built once, not per partner.
  const ProfileView query = View(id, weights_a_);
  out.reserve(partners_[id].size());
  for (const EntityId p : partners_[id]) {
    const double bonus = EvidenceBonus(
        scheduler_.slot(scheduler_.Find(PairKey(id, p))), options_.evidence);
    out.push_back(QueryCandidate{p, SimilarityTo(query, p) + bonus,
                                 state_->SameCluster(id, p)});
  }
  std::sort(out.begin(), out.end(),
            [](const QueryCandidate& l, const QueryCandidate& r) {
              if (l.similarity != r.similarity) {
                return l.similarity > r.similarity;
              }
              return l.id < r.id;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

Status OnlineResolver::SaveState(std::ostream& out) const {
  const EntityCollection& c = collection();
  serde::WriteString(out, kOnlineStateMagicV2);
  serde::WriteU32(out, c.num_entities());
  serde::WriteU32(out, c.num_kbs());
  serde::WriteU64(out, c.total_triples());
  serde::WriteU64(out, OnlineOptionsDigest(options_));

  // v2: the collection travels with the state, so Restore(options, in)
  // needs no snapshot from the caller.
  MINOAN_RETURN_IF_ERROR(c.Save(out));

  index_.Save(out);

  // Adjacency lists carry their insertion order (UpdatePhase truncates to
  // the first max_neighbors_per_side entries), so they are serialized
  // verbatim rather than rebuilt.
  const auto save_adjacency =
      [&out](const std::vector<std::vector<EntityId>>& lists) {
        serde::WriteU64(out, lists.size());
        for (const auto& list : lists) {
          serde::WriteU64(out, list.size());
          for (const EntityId e : list) serde::WriteU32(out, e);
        }
      };
  save_adjacency(neighbors_);
  save_adjacency(partners_);

  const std::vector<uint32_t> by_pair = scheduler_.SlotsByPair();
  serde::WriteU64(out, by_pair.size());
  for (const uint32_t id : by_pair) {
    const ScheduleSlot& slot = scheduler_.slot(id);
    serde::WriteU64(out, slot.pair);
    serde::WriteDouble(out, slot.likelihood);
    serde::WriteDouble(out, slot.evidence);
    serde::WriteU8(out, slot.executed ? 1 : 0);
  }

  serde::WriteU64(out, scheduler_.live_size());
  for (const uint32_t id : by_pair) {
    const ScheduleSlot& slot = scheduler_.slot(id);
    if (!slot.live) continue;
    serde::WriteU64(out, slot.pair);
    serde::WriteDouble(out, slot.priority);
  }
  serde::WriteU64(out, scheduler_.total_pushes());

  serde::WriteU64(out, cluster_ops_.size());
  for (const auto& [a, b] : cluster_ops_) {
    serde::WriteU32(out, a);
    serde::WriteU32(out, b);
  }

  serde::WriteU64(out, run_.comparisons_executed);
  serde::WriteU64(out, run_.matches.size());
  for (const MatchEvent& m : run_.matches) {
    serde::WriteU64(out, m.comparisons_done);
    serde::WriteU32(out, m.a);
    serde::WriteU32(out, m.b);
    serde::WriteDouble(out, m.similarity);
  }
  serde::WriteU64(out, discovered_pairs_);
  serde::WriteU64(out, evidence_assisted_matches_);
  serde::WriteU64(out, same_as_consumed_);
  if (!out) return Status::IoError("online checkpoint write failed");
  return Status::Ok();
}

Status OnlineResolver::LoadState(std::istream& in) {
  const auto truncated = [] {
    return Status::ParseError("truncated or corrupt online engine state");
  };
  std::string magic;
  if (!serde::ReadString(in, magic, kOnlineStateMagicV2.size())) {
    return truncated();
  }
  if (magic != kOnlineStateMagicV1 && magic != kOnlineStateMagicV2) {
    return Status::ParseError("not a MinoanER online engine state");
  }
  uint32_t num_entities, num_kbs;
  uint64_t total_triples, digest;
  if (!serde::ReadU32(in, num_entities) || !serde::ReadU32(in, num_kbs) ||
      !serde::ReadU64(in, total_triples) || !serde::ReadU64(in, digest)) {
    return truncated();
  }
  if (digest != OnlineOptionsDigest(options_)) {
    return Status::InvalidArgument(
        "online state was saved with different options; restore with the "
        "options used at save time");
  }
  if (magic == kOnlineStateMagicV2) {
    // The collection travels with the state; whatever the engine held
    // (usually the empty store of the self-contained Restore) is replaced
    // by the saved snapshot before the header counts are cross-checked.
    MINOAN_RETURN_IF_ERROR(coll_.LoadCollection(in));
  }
  const EntityCollection& c = collection();
  const uint32_t n = c.num_entities();
  if (num_entities != n || num_kbs != c.num_kbs() ||
      total_triples != c.total_triples()) {
    return Status::InvalidArgument(
        magic == kOnlineStateMagicV2
            ? "online state header disagrees with its embedded collection"
            : "online state was saved over a different collection (entity/"
              "KB/triple counts differ); v1 states restore only over the "
              "exact snapshot the saving engine held");
  }

  if (!index_.Load(in, n)) return truncated();

  const auto load_adjacency =
      [&](std::vector<std::vector<EntityId>>& lists) {
        uint64_t count;
        if (!serde::ReadU64(in, count) || count > n) return false;
        lists.assign(count, {});
        for (auto& list : lists) {
          uint64_t len;
          if (!serde::ReadU64(in, len) || len > n) return false;
          list.reserve(len);
          for (uint64_t i = 0; i < len; ++i) {
            uint32_t e;
            if (!serde::ReadU32(in, e) || e >= n) return false;
            list.push_back(e);
          }
        }
        return true;
      };
  if (!load_adjacency(neighbors_)) return truncated();
  if (!load_adjacency(partners_)) return truncated();

  // The pair table and the live list must be canonical, as SaveState writes
  // them: ascending keys, finite values, and every live pair a known,
  // not-yet-executed slot.
  uint64_t n_pairs;
  if (!serde::ReadU64(in, n_pairs)) return truncated();
  ComparisonScheduler scheduler;
  scheduler.Reserve(std::min(n_pairs, kMaxUpfrontReserve));
  for (uint64_t i = 0, prev = 0; i < n_pairs; ++i) {
    uint64_t pair;
    double likelihood, evidence;
    uint8_t executed;
    if (!serde::ReadU64(in, pair) || !serde::ReadDouble(in, likelihood) ||
        !serde::ReadDouble(in, evidence) || !serde::ReadU8(in, executed) ||
        !serde::ValidPairKey(pair, n) || (i > 0 && pair <= prev) ||
        !std::isfinite(likelihood) || !std::isfinite(evidence)) {
      return truncated();
    }
    prev = pair;
    ScheduleSlot& slot = scheduler.slot(scheduler.FindOrAdd(pair));
    slot.likelihood = likelihood;
    slot.evidence = evidence;
    slot.executed = executed != 0;
  }

  std::vector<uint32_t> live;
  std::vector<double> live_priorities;
  if (!serde::ReadAscendingPairDoubles(
          in, n, [&](uint64_t pair, double priority) {
            const uint32_t id = scheduler.Find(pair);
            if (id == ComparisonScheduler::kNoSlot ||
                scheduler.slot(id).executed) {
              return false;
            }
            live.push_back(id);
            live_priorities.push_back(priority);
            return true;
          })) {
    return truncated();
  }
  uint64_t total_pushes;
  if (!serde::ReadU64(in, total_pushes)) return truncated();

  uint64_t n_ops;
  if (!serde::ReadU64(in, n_ops)) return truncated();
  cluster_ops_.clear();
  cluster_ops_.reserve(std::min(n_ops, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_ops; ++i) {
    uint32_t a, b;
    if (!serde::ReadU32(in, a) || !serde::ReadU32(in, b) || a >= n ||
        b >= n) {
      return truncated();
    }
    cluster_ops_.emplace_back(a, b);
  }

  ResolutionRun run;
  uint64_t n_matches;
  if (!serde::ReadU64(in, run.comparisons_executed) ||
      !serde::ReadU64(in, n_matches)) {
    return truncated();
  }
  run.matches.reserve(std::min(n_matches, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_matches; ++i) {
    MatchEvent m;
    if (!serde::ReadU64(in, m.comparisons_done) || !serde::ReadU32(in, m.a) ||
        !serde::ReadU32(in, m.b) || !serde::ReadDouble(in, m.similarity) ||
        m.a >= n || m.b >= n) {
      return truncated();
    }
    run.matches.push_back(m);
  }
  uint64_t same_as_consumed;
  if (!serde::ReadU64(in, discovered_pairs_) ||
      !serde::ReadU64(in, evidence_assisted_matches_) ||
      !serde::ReadU64(in, same_as_consumed)) {
    return truncated();
  }
  if (same_as_consumed > c.same_as_links().size()) {
    return Status::ParseError("online state sameAs cursor out of range");
  }
  same_as_consumed_ = static_cast<size_t>(same_as_consumed);

  // Rebuild the mutable cluster state by replaying the merge log:
  // RecordMatch is deterministic in call order, so the union-find layout
  // and cluster profiles come out identical to the saving engine's.
  state_ = std::make_unique<ResolutionState>(c, nullptr);
  state_->SetDynamicNeighbors(&neighbors_);
  for (const auto& [a, b] : cluster_ops_) state_->RecordMatch(a, b);

  scheduler.Prime(std::move(live), live_priorities);
  scheduler.set_total_pushes(total_pushes);
  scheduler_ = std::move(scheduler);
  run_ = std::move(run);
  defer_scoring_ = false;
  deferred_slots_.clear();
  return Status::Ok();
}

}  // namespace online
}  // namespace minoan
