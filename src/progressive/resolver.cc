#include "progressive/resolver.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Format tag of the serialized loop state; bump on layout changes.
constexpr std::string_view kStateMagic = "MNER-PROG-v1";

using serde::kMaxUpfrontReserve;
using serde::ValidPairKey;

/// Runs fn(pool) with the pool a setup pass over `n` items runs on when
/// `num_threads` calls for parallelism: the caller's pool, or a transient
/// one. A caller-owned pool (the session's) has no spawn cost, so it pays
/// off on much smaller lists than a transient pool does. The gate only
/// decides where the pass runs; its result is identical either way.
template <typename Fn>
void WithSetupPool(ThreadPool* caller_pool, uint32_t num_threads, size_t n,
                   const Fn& fn) {
  const uint32_t threads = ResolveThreadCount(num_threads);
  const size_t min_parallel = caller_pool != nullptr ? 256 : 2048;
  if (threads <= 1 || n < min_parallel) {
    fn(nullptr);
  } else if (caller_pool != nullptr) {
    fn(caller_pool);
  } else {
    ThreadPool pool(threads);
    fn(&pool);
  }
}

}  // namespace

ProgressiveResolver::ProgressiveResolver(const EntityCollection& collection,
                                         const NeighborGraph& graph,
                                         const SimilarityEvaluator& evaluator,
                                         ProgressiveOptions options,
                                         ThreadPool* pool)
    : collection_(&collection),
      owned_source_(std::make_unique<BatchSource>(graph, evaluator)),
      source_(owned_source_.get()),
      options_(options),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side),
      pool_(pool) {}

ProgressiveResolver::ProgressiveResolver(const EntityCollection& collection,
                                         ResolutionSource& source,
                                         ProgressiveOptions options,
                                         ThreadPool* pool)
    : collection_(&collection),
      source_(&source),
      options_(options),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side),
      pool_(pool) {}

std::unique_ptr<ResolutionState> ProgressiveResolver::NewState() const {
  // Only the attribute-completeness model reads the cluster value sets.
  return std::make_unique<ResolutionState>(
      *collection_, source_,
      /*track_values=*/options_.benefit ==
          BenefitModel::kAttributeCompleteness);
}

double ProgressiveResolver::Priority(uint32_t id) const {
  const ScheduleSlot& slot = scheduler_.slot(id);
  return Priority(slot.pair, slot.likelihood, slot.evidence);
}

double ProgressiveResolver::Priority(uint64_t pair, double likelihood,
                                     double evidence) const {
  const double benefit = estimator_.PairBenefit(PairKeyFirst(pair),
                                                PairKeySecond(pair), *state_);
  if (evidence > 0.0) {
    likelihood += options_.evidence.priority * std::min(1.0, evidence);
  }
  return likelihood * (1.0 + options_.benefit_weight * benefit);
}

void ProgressiveResolver::Begin(
    const std::vector<WeightedComparison>& candidates,
    const std::vector<Comparison>& seeds) {
  scheduler_ = ComparisonScheduler();
  result_ = ProgressiveResult();
  merges_.clear();
  cumulative_benefit_ = 0.0;
  exhausted_ = false;
  state_ = NewState();
  begun_ = true;

  // Normalize blocking-graph weights into [0, 1] likelihoods; a duplicated
  // candidate keeps its last weight.
  double max_weight = 0.0;
  for (const WeightedComparison& c : candidates) {
    max_weight = std::max(max_weight, c.weight);
  }
  const double scale = max_weight > 0.0 ? 1.0 / max_weight : 1.0;
  WithSetupPool(pool_, options_.num_threads, candidates.size(),
                [&](ThreadPool* pool) {
    NoInitVector<uint32_t> slots = scheduler_.InstallCandidates(
        candidates, collection_->num_entities(), scale, pool);
    // The listings that hold their pair's slot (all, unless a pair is
    // listed twice), in list order: meta-blocking's weight order, nearly
    // the pop order. Each slot is pristine, so its priority is priced from
    // the listing itself, without reading the slot.
    std::vector<uint32_t> kept;
    if (slots.size() != scheduler_.num_candidates()) {
      for (uint32_t i = 0; i < slots.size(); ++i) {
        if (slots[i] != ComparisonScheduler::kNoSlot) kept.push_back(i);
      }
    }
    NoInitVector<ComparisonScheduler::PrimeEntry> entries(
        scheduler_.num_candidates());
    RunChunkedTasks(pool, entries.size(), kParallelGrain,
                    [&](size_t, size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        const size_t i = kept.empty() ? j : kept[j];
        const uint64_t pair = PairKey(candidates[i].a, candidates[i].b);
        entries[j] = {Priority(pair, candidates[i].weight * scale, 0.0), pair,
                      slots[i]};
      }
    });
    slots = {};
    kept = {};
    scheduler_.Prime(entries, pool);
  });

  // Warm-start seeds apply after scoring, so their neighborhoods get
  // evidence before anything is compared.
  for (const Comparison& seed : seeds) ApplySeed(seed.a, seed.b);
  result_.scheduler_pushes = scheduler_.total_pushes();
}

void ProgressiveResolver::ScoreAndPrime(std::span<const uint32_t> ids) {
  NoInitVector<ComparisonScheduler::PrimeEntry> entries(ids.size());
  WithSetupPool(pool_, options_.num_threads, ids.size(),
                [&](ThreadPool* pool) {
                  RunPoolTasks(pool, ids.size(), [&](size_t i) {
                    entries[i] = {Priority(ids[i]),
                                  scheduler_.slot(ids[i]).pair, ids[i]};
                  });
                  scheduler_.Prime(entries, pool);
                });
}

uint32_t ProgressiveResolver::SlotFor(uint64_t pair) {
  bool created = false;
  const uint32_t id = scheduler_.FindOrAdd(pair, &created);
  if (created) source_->OnSlotCreated(pair);
  return id;
}

void ProgressiveResolver::Schedule(uint32_t id) {
  scheduler_.Push(id, Priority(id));
}

void ProgressiveResolver::ApplySeed(EntityId a, EntityId b) {
  const uint32_t id = SlotFor(PairKey(a, b));
  if (scheduler_.slot(id).executed) return;
  scheduler_.slot(id).executed = true;
  scheduler_.Erase(id);
  RecordMerge(a, b);
  if (options_.enable_update_phase) UpdatePhase(a, b);
}

void ProgressiveResolver::RecordMerge(EntityId a, EntityId b) {
  merges_.emplace_back(a, b);
  state_->RecordMatch(a, b);
}

StepResult ProgressiveResolver::Step(uint64_t max_comparisons) {
  StepResult out;
  if (!begun_ || (exhausted_ && scheduler_.empty())) {
    out.exhausted = exhausted_;
  } else if (!budget_spent()) {
    // The overall options budget caps this call.
    if (options_.matcher.budget != 0) {
      const uint64_t left =
          options_.matcher.budget - result_.run.comparisons_executed;
      max_comparisons =
          max_comparisons == 0 ? left : std::min(max_comparisons, left);
    }
    const size_t match_mark = result_.run.matches.size();
    const uint64_t discovered_mark = result_.discovered_pairs;
    const uint64_t discovered_matches_mark = result_.discovered_matches;
    const uint64_t fanout_mark = update_fanout_;
    // Counted in locals, which stay in registers: out is the caller's
    // return slot, so its fields would be stored and reloaded around every
    // call into the (not inlined) matching and update code.
    uint64_t comparisons = 0, pops = 0, requeues = 0, skips = 0;
    uint64_t evidence_updates = 0;
    uint32_t id = 0;
    double popped_priority = 0.0;
    while (max_comparisons == 0 || comparisons < max_comparisons) {
      if (!scheduler_.Pop(id, popped_priority)) {
        out.exhausted = true;
        break;
      }
      ++pops;
      if (scheduler_.slot(id).executed) {
        ++skips;
        continue;
      }
      // Priority drift: the state may have changed since this entry was
      // pushed. Re-queue significantly stale entries instead of executing.
      const double current = Priority(id);
      if (current + 1e-12 < popped_priority *
                                (1.0 - options_.evidence.staleness_tolerance)) {
        scheduler_.Push(id, current);
        ++requeues;
        continue;
      }
      evidence_updates += Execute(id);
      ++comparisons;
    }
    exhausted_ = out.exhausted;
    out.comparisons = comparisons;
    out.pops = pops;
    out.requeues = requeues;
    out.skips = skips;
    out.evidence_updates = evidence_updates;
    out.discovered_pairs = result_.discovered_pairs - discovered_mark;
    out.discovered_matches =
        result_.discovered_matches - discovered_matches_mark;
    out.update_fanout = update_fanout_ - fanout_mark;
    out.matches.assign(result_.run.matches.begin() + match_mark,
                       result_.run.matches.end());
    result_.scheduler_pushes = scheduler_.total_pushes();
  }

  // Once per call, never once per comparison.
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
  pops.Add(out.pops);
  requeues.Add(out.requeues);
  skips.Add(out.skips);
  comparisons.Add(out.comparisons);
  evidence_updates.Add(out.evidence_updates);
  discovered_pairs.Add(out.discovered_pairs);
  discovered_matches.Add(out.discovered_matches);
  update_fanout.Add(out.update_fanout);
  // Close the quality curve at the true totals (the cadence sampler only
  // fires every N comparisons).
  if (progress_ != nullptr && progress_->enabled() && out.comparisons > 0) {
    progress_->Sample(result_.run.comparisons_executed,
                      result_.run.matches.size());
  }
  return out;
}

uint64_t ProgressiveResolver::Execute(uint32_t id) {
  // ---- Matching phase -----------------------------------------------------
  // Copy what the match needs: the update phase may append slots. Erasing
  // is a no-op for a popped slot; Query executes slots still scheduled.
  ScheduleSlot& slot = scheduler_.slot(id);
  slot.executed = true;
  const EntityId a = PairKeyFirst(slot.pair);
  const EntityId b = PairKeySecond(slot.pair);
  const bool discovered = !slot.candidate;
  const double bonus = EvidenceBonus(id);
  scheduler_.Erase(id);
  ++result_.run.comparisons_executed;
  const double profile_sim = source_->Similarity(a, b);
  const double sim = profile_sim + bonus;
  uint64_t updates = 0;
  if (sim >= options_.matcher.threshold) {
    // ---- Confirmed match --------------------------------------------------
    const double realized = estimator_.RealizedBenefit(a, b, *state_);
    RecordMerge(a, b);
    cumulative_benefit_ += realized;
    result_.run.matches.push_back(
        MatchEvent{result_.run.comparisons_executed, a, b, sim});
    result_.benefit_trace.push_back(cumulative_benefit_);
    if (profile_sim < options_.matcher.threshold) {
      ++result_.evidence_assisted_matches;
    }
    if (discovered) ++result_.discovered_matches;
    if (on_match_) on_match_(result_.run.matches.back());

    // ---- Update phase -----------------------------------------------------
    if (options_.enable_update_phase) updates = UpdatePhase(a, b);
  }
  if (progress_ != nullptr) {
    progress_->OnProgress(result_.run.comparisons_executed,
                          result_.run.matches.size());
  }
  return updates;
}

uint64_t ProgressiveResolver::UpdatePhase(EntityId a, EntityId b) {
  const std::span<const EntityId> na = source_->Neighbors(a);
  const std::span<const EntityId> nb = source_->Neighbors(b);
  const size_t la =
      std::min<size_t>(na.size(), options_.evidence.max_neighbors_per_side);
  const size_t lb =
      std::min<size_t>(nb.size(), options_.evidence.max_neighbors_per_side);
  const bool clean = options_.mode == ResolutionMode::kCleanClean;
  uint64_t updates = 0;
  uint64_t considered = 0;
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      const EntityId x = na[i];
      const EntityId y = nb[j];
      if (x == y) continue;
      if (clean && !collection_->CrossKb(x, y)) continue;
      ++considered;
      const uint64_t pair = PairKey(x, y);
      uint32_t id = scheduler_.Find(pair);
      if (id != ComparisonScheduler::kNoSlot && scheduler_.slot(id).executed) {
        continue;
      }
      if (state_->SameCluster(x, y)) continue;
      if (id == ComparisonScheduler::kNoSlot) {
        // A pair blocking never produced: discovered via the graph.
        id = SlotFor(pair);
        ++result_.discovered_pairs;
      }
      // Accumulate similarity evidence: the matched pair (a, b) vouches for
      // its aligned neighbors.
      ScheduleSlot& slot = scheduler_.slot(id);
      slot.evidence += options_.evidence.increment;
      slot.has_evidence = true;
      ++updates;
      Schedule(id);
    }
  }
  update_fanout_ += considered;
  return updates;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

Status ProgressiveResolver::SaveState(std::ostream& out) const {
  if (!begun_) {
    return Status::FailedPrecondition(
        "no active resolution to save (call Begin first)");
  }
  serde::WriteString(out, kStateMagic);
  // Every list is a filter of the slots in ascending pair order.
  const std::vector<uint32_t> by_pair = scheduler_.SlotsByPair();
  const auto write_slots = [&](bool ScheduleSlot::*in_list,
                               const double ScheduleSlot::*value) {
    uint64_t n = 0;
    for (const uint32_t id : by_pair) n += scheduler_.slot(id).*in_list;
    serde::WriteU64(out, n);
    for (const uint32_t id : by_pair) {
      const ScheduleSlot& slot = scheduler_.slot(id);
      if (!(slot.*in_list)) continue;
      serde::WriteU64(out, slot.pair);
      if (value != nullptr) serde::WriteDouble(out, slot.*value);
    }
  };
  write_slots(&ScheduleSlot::candidate, &ScheduleSlot::likelihood);
  write_slots(&ScheduleSlot::has_evidence, &ScheduleSlot::evidence);
  write_slots(&ScheduleSlot::executed, nullptr);
  // The seed list is the merge log's prefix: Begin applies every seed
  // before the first match.
  WriteLoopSections(out, scheduler_, by_pair,
                    std::span<const MergeOp>(merges_).first(
                        merges_.size() - result_.run.matches.size()),
                    result_.run);
  serde::WriteU64(out, result_.benefit_trace.size());
  for (const double v : result_.benefit_trace) serde::WriteDouble(out, v);
  serde::WriteU64(out, result_.discovered_pairs);
  serde::WriteU64(out, result_.discovered_matches);
  serde::WriteU64(out, result_.evidence_assisted_matches);
  serde::WriteDouble(out, cumulative_benefit_);
  serde::WriteU8(out, exhausted_ ? 1 : 0);
  if (!out) return Status::IoError("checkpoint write failed");
  return Status::Ok();
}

Status ProgressiveResolver::LoadState(std::istream& in) {
  const auto truncated = [] {
    return Status::ParseError("truncated or corrupt resolver state");
  };
  const uint32_t num_entities = collection_->num_entities();
  std::string magic;
  if (!serde::ReadString(in, magic, kStateMagic.size())) return truncated();
  if (magic != kStateMagic) {
    return Status::ParseError("bad resolver-state magic: \"" + magic + "\"");
  }
  // The lists must be canonical, as SaveState writes them: ascending
  // keys, finite values, and no live pair that was already executed.
  // Candidates are installed as Begin installs them (likelihood · 1.0 is
  // the likelihood); later pairs get slots after them.
  ComparisonScheduler scheduler;
  std::vector<WeightedComparison> candidates;
  if (!serde::ReadAscendingPairDoubles(
          in, num_entities, [&](uint64_t pair, double likelihood) {
            if (PairKeyFirst(pair) > PairKeySecond(pair)) return false;
            candidates.push_back(
                {PairKeyFirst(pair), PairKeySecond(pair), likelihood});
            return true;
          })) {
    return truncated();
  }
  scheduler.InstallCandidates(candidates, num_entities, 1.0);
  candidates = {};
  const auto slot_of = [&scheduler](uint64_t pair) -> ScheduleSlot& {
    return scheduler.slot(scheduler.FindOrAdd(pair));
  };
  if (!serde::ReadAscendingPairDoubles(
          in, num_entities, [&](uint64_t pair, double evidence) {
            ScheduleSlot& slot = slot_of(pair);
            slot.evidence = evidence;
            slot.has_evidence = true;
            return true;
          })) {
    return truncated();
  }

  uint64_t n_executed;
  if (!serde::ReadU64(in, n_executed)) return truncated();
  for (uint64_t i = 0, prev = 0; i < n_executed; ++i) {
    uint64_t pair;
    if (!serde::ReadU64(in, pair) || !ValidPairKey(pair, num_entities) ||
        (i > 0 && pair <= prev)) {
      return truncated();
    }
    prev = pair;
    slot_of(pair).executed = true;
  }
  std::vector<MergeOp> merges;
  ProgressiveResult result;
  if (!ReadLoopSections(in, num_entities, scheduler, merges, result.run)) {
    return truncated();
  }
  uint64_t n_trace;
  if (!serde::ReadU64(in, n_trace)) return truncated();
  if (n_trace != result.run.matches.size()) {
    return Status::ParseError("benefit trace length mismatch");
  }
  result.benefit_trace.resize(n_trace);
  for (uint64_t i = 0; i < n_trace; ++i) {
    if (!serde::ReadDouble(in, result.benefit_trace[i])) return truncated();
  }
  double cumulative_benefit;
  uint8_t exhausted;
  if (!serde::ReadU64(in, result.discovered_pairs) ||
      !serde::ReadU64(in, result.discovered_matches) ||
      !serde::ReadU64(in, result.evidence_assisted_matches) ||
      !serde::ReadDouble(in, cumulative_benefit) ||
      !serde::ReadU8(in, exhausted)) {
    return truncated();
  }
  // A drained run has nothing live (nothing is scheduled after the drain).
  if (exhausted != 0 && !scheduler.empty()) return truncated();

  for (const MatchEvent& m : result.run.matches) merges.emplace_back(m.a, m.b);
  Restore(std::move(scheduler), std::move(merges), std::move(result),
          cumulative_benefit, exhausted != 0);
  return Status::Ok();
}

void ProgressiveResolver::Restore(ComparisonScheduler scheduler,
                                  std::vector<MergeOp> merges,
                                  ProgressiveResult result,
                                  double cumulative_benefit, bool exhausted) {
  // Replaying the merge log reproduces the union-find layout and cluster
  // profiles of the uninterrupted run.
  state_ = NewState();
  for (const auto& [a, b] : merges) state_->RecordMatch(a, b);
  scheduler_ = std::move(scheduler);
  merges_ = std::move(merges);
  result_ = std::move(result);
  result_.scheduler_pushes = scheduler_.total_pushes();
  cumulative_benefit_ = cumulative_benefit;
  exhausted_ = exhausted;
  begun_ = true;
}

void WriteLoopSections(std::ostream& out, const ComparisonScheduler& scheduler,
                       const std::vector<uint32_t>& by_pair,
                       std::span<const MergeOp> merges,
                       const ResolutionRun& run) {
  serde::WriteU64(out, scheduler.live_size());
  for (const uint32_t id : by_pair) {
    const ScheduleSlot& slot = scheduler.slot(id);
    if (!slot.live) continue;
    serde::WriteU64(out, slot.pair);
    serde::WriteDouble(out, slot.priority);
  }
  serde::WriteU64(out, scheduler.total_pushes());
  serde::WriteU64(out, merges.size());
  for (const auto& [a, b] : merges) {
    serde::WriteU32(out, a);
    serde::WriteU32(out, b);
  }
  serde::WriteU64(out, run.comparisons_executed);
  serde::WriteU64(out, run.matches.size());
  for (const MatchEvent& m : run.matches) {
    serde::WriteU64(out, m.comparisons_done);
    serde::WriteU32(out, m.a);
    serde::WriteU32(out, m.b);
    serde::WriteDouble(out, m.similarity);
  }
}

bool ReadLoopSections(std::istream& in, uint32_t num_entities,
                      ComparisonScheduler& scheduler,
                      std::vector<MergeOp>& merges, ResolutionRun& run) {
  std::vector<ComparisonScheduler::PrimeEntry> live;
  uint64_t total_pushes;
  if (!serde::ReadAscendingPairDoubles(
          in, num_entities,
          [&](uint64_t pair, double priority) {
            const uint32_t id = scheduler.Find(pair);
            if (id == ComparisonScheduler::kNoSlot ||
                scheduler.slot(id).executed) {
              return false;
            }
            live.push_back({priority, pair, id});
            return true;
          }) ||
      !serde::ReadU64(in, total_pushes)) {
    return false;
  }
  scheduler.Prime(live);
  scheduler.set_total_pushes(total_pushes);

  uint64_t n;
  if (!serde::ReadU64(in, n)) return false;
  merges.clear();
  merges.reserve(std::min(n, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t a, b;
    if (!serde::ReadU32(in, a) || !serde::ReadU32(in, b) ||
        a >= num_entities || b >= num_entities) {
      return false;
    }
    merges.emplace_back(a, b);
  }

  if (!serde::ReadU64(in, run.comparisons_executed) || !serde::ReadU64(in, n)) {
    return false;
  }
  run.matches.clear();
  run.matches.reserve(std::min(n, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n; ++i) {
    MatchEvent m;
    if (!serde::ReadU64(in, m.comparisons_done) || !serde::ReadU32(in, m.a) ||
        !serde::ReadU32(in, m.b) || !serde::ReadDouble(in, m.similarity) ||
        m.a >= num_entities || m.b >= num_entities) {
      return false;
    }
    run.matches.push_back(m);
  }
  return true;
}

}  // namespace minoan
