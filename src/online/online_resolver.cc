#include "online/online_resolver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/serde.h"

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

/// The engine configuration an online driver runs: no overall budget (each
/// ResolveBudget call is its own), the update phase always on.
ProgressiveOptions EngineOptions(const OnlineOptions& o) {
  ProgressiveOptions p;
  p.benefit = o.benefit;
  p.benefit_weight = o.benefit_weight;
  p.matcher = o.matcher;
  p.matcher.budget = 0;
  p.evidence = o.evidence;
  p.mode = o.blocking.mode;
  p.num_threads = o.num_threads;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// OnlineSource
// ---------------------------------------------------------------------------

std::span<const EntityId> OnlineSource::Neighbors(EntityId e) const {
  if (e >= neighbors_.size()) return {};
  return neighbors_[e];
}

ProfileView OnlineSource::View(EntityId e,
                               std::vector<double>& weights) const {
  return BuildProfileView(*collection_, e, similarity_.use_tfidf, weights);
}

double OnlineSource::SimilarityTo(const ProfileView& a, EntityId b) {
  return ProfileSimilarity(a, View(b, weights_b_), similarity_);
}

double OnlineSource::Similarity(EntityId a, EntityId b) {
  return SimilarityTo(View(a, weights_a_), b);
}

void OnlineSource::OnSlotCreated(uint64_t pair) {
  const EntityId a = PairKeyFirst(pair);
  const EntityId b = PairKeySecond(pair);
  partners_[a].push_back(b);
  partners_[b].push_back(a);
}

void OnlineSource::AddEntity(EntityId id) {
  // Sized to the whole collection: a warm start's relations may point past
  // `id`.
  if (neighbors_.size() < collection_->num_entities()) {
    neighbors_.resize(collection_->num_entities());
    partners_.resize(collection_->num_entities());
  }
  for (const Relation& r : collection_->entity(id).relations) {
    if (r.target == id) continue;
    auto& mine = neighbors_[id];
    if (std::find(mine.begin(), mine.end(), r.target) == mine.end()) {
      mine.push_back(r.target);
      neighbors_[r.target].push_back(id);
    }
  }
}

void OnlineSource::Save(std::ostream& out) const {
  for (const auto* lists : {&neighbors_, &partners_}) {
    serde::WriteU64(out, lists->size());
    for (const auto& list : *lists) {
      serde::WriteU64(out, list.size());
      for (const EntityId e : list) serde::WriteU32(out, e);
    }
  }
}

bool OnlineSource::Load(std::istream& in, uint32_t num_entities) {
  for (auto* lists : {&neighbors_, &partners_}) {
    uint64_t count;
    if (!serde::ReadU64(in, count) || count > num_entities) return false;
    lists->assign(count, {});
    for (auto& list : *lists) {
      uint64_t len;
      if (!serde::ReadU64(in, len) || len > num_entities) return false;
      list.reserve(len);
      for (uint64_t i = 0; i < len; ++i) {
        uint32_t e;
        if (!serde::ReadU32(in, e) || e >= num_entities) return false;
        list.push_back(e);
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// OnlineResolver
// ---------------------------------------------------------------------------

OnlineResolver::OnlineResolver(OnlineOptions options)
    : OnlineResolver(options, RestoreTag{}) {
  engine_.Begin({});
}

OnlineResolver::OnlineResolver(OnlineOptions options, EntityCollection&& warm)
    : OnlineResolver(options, std::move(warm), RestoreTag{}) {
  engine_.Begin({});
  // Index sequentially (the incremental index mutates per entity), then
  // price the whole candidate set in one pass — in parallel when
  // options_.num_threads allows, identically either way.
  std::vector<uint32_t> deferred;
  for (EntityId id = 0; id < coll_.num_entities(); ++id) {
    IndexEntity(id, &deferred);
  }
  engine_.ScoreAndPrime(deferred);
  ConsumeSameAsSeeds();
}

OnlineResolver::OnlineResolver(OnlineOptions options, EntityCollection&& warm,
                               RestoreTag)
    : options_(options),
      coll_(std::move(warm)),
      index_(options.blocking),
      source_(coll_.collection(), options.similarity),
      engine_(coll_.collection(), source_, EngineOptions(options)) {}

OnlineResolver::OnlineResolver(OnlineOptions options, RestoreTag)
    : options_(options),
      coll_(options.collection),
      index_(options.blocking),
      source_(coll_.collection(), options.similarity),
      engine_(coll_.collection(), source_, EngineOptions(options)) {}

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

void OnlineResolver::IndexEntity(EntityId id, std::vector<uint32_t>* deferred) {
  source_.AddEntity(id);
  engine_.state().AddEntity(id);
  delta_scratch_.clear();
  index_.AddEntity(collection(), id, delta_scratch_);
  for (const DeltaPair& d : delta_scratch_) {
    const uint32_t slot_id = engine_.SlotFor(PairKey(d.a, d.b));
    ScheduleSlot& slot = engine_.slot(slot_id);
    slot.likelihood = d.weight;
    slot.candidate = true;
    // The update phase may have discovered and even executed this pair
    // before blocking produced it.
    if (slot.executed) continue;
    if (deferred != nullptr) {
      deferred->push_back(slot_id);
    } else {
      engine_.Schedule(slot_id);
    }
  }
}

void OnlineResolver::ConsumeSameAsSeeds() {
  const auto& links = collection().same_as_links();
  if (!options_.use_same_as_seeds) {
    same_as_consumed_ = links.size();
    return;
  }
  for (; same_as_consumed_ < links.size(); ++same_as_consumed_) {
    engine_.ApplySeed(links[same_as_consumed_].a, links[same_as_consumed_].b);
  }
}

OnlineStepResult OnlineResolver::ResolveBudget(uint64_t max_comparisons) {
  // A zero budget spends nothing (the engine treats 0 as "uncapped").
  if (max_comparisons == 0) return {};
  const OnlineStepResult out = engine_.Step(max_comparisons);
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
  if (k == 0 || id >= source_.partner_lists()) return out;

  // Drain the entity's pending comparisons first — including any its own
  // matches discover for it mid-loop (the partner list may grow; indexing
  // by position covers the appended tail).
  const std::vector<EntityId>& partners = source_.partners(id);
  for (size_t i = 0; i < partners.size(); ++i) {
    // Every partner pair has a slot: the source registers both together.
    const uint32_t slot = engine_.scheduler().Find(PairKey(id, partners[i]));
    if (!engine_.slot(slot).executed) engine_.Execute(slot);
  }

  // Rank with the query side's view built once, not per partner.
  const ProfileView query = source_.View(id, query_weights_);
  out.reserve(partners.size());
  for (const EntityId p : partners) {
    const double bonus = EvidenceBonus(
        engine_.slot(engine_.scheduler().Find(PairKey(id, p))),
        options_.evidence);
    out.push_back(QueryCandidate{p, source_.SimilarityTo(query, p) + bonus,
                                 engine_.state().SameCluster(id, p)});
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
  source_.Save(out);

  const ComparisonScheduler& scheduler = engine_.scheduler();
  const std::vector<uint32_t> by_pair = scheduler.SlotsByPair();
  serde::WriteU64(out, by_pair.size());
  for (const uint32_t id : by_pair) {
    const ScheduleSlot& slot = scheduler.slot(id);
    serde::WriteU64(out, slot.pair);
    serde::WriteDouble(out, slot.likelihood);
    serde::WriteDouble(out, slot.evidence);
    serde::WriteU8(out, slot.executed ? 1 : 0);
  }
  const ProgressiveResult& result = engine_.result();
  WriteLoopSections(out, scheduler, by_pair, engine_.merges(), result.run);
  serde::WriteU64(out, result.discovered_pairs);
  serde::WriteU64(out, result.evidence_assisted_matches);
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

  if (!index_.Load(in, n) || !source_.Load(in, n)) return truncated();

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
    // Exact: every pair the index emits carries a positive key-set weight.
    slot.candidate = likelihood > 0.0;
    slot.evidence = evidence;
    slot.executed = executed != 0;
  }
  std::vector<MergeOp> merges;
  ProgressiveResult result;
  uint64_t same_as_consumed;
  if (!ReadLoopSections(in, n, scheduler, merges, result.run) ||
      !serde::ReadU64(in, result.discovered_pairs) ||
      !serde::ReadU64(in, result.evidence_assisted_matches) ||
      !serde::ReadU64(in, same_as_consumed)) {
    return truncated();
  }
  if (same_as_consumed > c.same_as_links().size()) {
    return Status::ParseError("online state sameAs cursor out of range");
  }
  same_as_consumed_ = static_cast<size_t>(same_as_consumed);
  engine_.Restore(std::move(scheduler), std::move(merges), std::move(result),
                  /*cumulative_benefit=*/0.0, /*exhausted=*/false);
  return Status::Ok();
}

}  // namespace online
}  // namespace minoan
