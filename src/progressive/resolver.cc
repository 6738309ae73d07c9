#include "progressive/resolver.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/hash.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Format tag of the serialized loop state; bump on layout changes.
constexpr std::string_view kStateMagic = "MNER-PROG-v1";

using serde::kMaxUpfrontReserve;
using serde::ValidPairKey;

}  // namespace

ProgressiveResolver::ProgressiveResolver(const EntityCollection& collection,
                                         const NeighborGraph& graph,
                                         const SimilarityEvaluator& evaluator,
                                         ProgressiveOptions options,
                                         ThreadPool* pool)
    : collection_(&collection),
      graph_(&graph),
      evaluator_(&evaluator),
      options_(options),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side),
      pool_(pool) {}

double ProgressiveResolver::Priority(uint32_t id) const {
  return SlotPriority(scheduler_.slot(id), estimator_, options_.benefit_weight,
                      options_.evidence, *state_);
}

void ProgressiveResolver::Begin(
    const std::vector<WeightedComparison>& candidates,
    const std::vector<Comparison>& seeds) {
  scheduler_ = ComparisonScheduler();
  scheduler_.Reserve(candidates.size());
  result_ = ProgressiveResult();
  seeds_.clear();
  cumulative_benefit_ = 0.0;
  exhausted_ = false;
  state_ = std::make_unique<ResolutionState>(*collection_, graph_);

  // Normalize blocking-graph weights into [0, 1] likelihoods; a duplicated
  // candidate keeps its last weight.
  double max_weight = 0.0;
  for (const WeightedComparison& c : candidates) {
    max_weight = std::max(max_weight, c.weight);
  }
  const double scale = max_weight > 0.0 ? 1.0 / max_weight : 1.0;
  std::vector<uint32_t> slots(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    slots[i] = scheduler_.FindOrAdd(PairKey(candidates[i].a, candidates[i].b));
    ScheduleSlot& slot = scheduler_.slot(slots[i]);
    slot.likelihood = candidates[i].weight * scale;
    slot.candidate = true;
  }
  // Score the candidates. Safe to fan out: the state is pristine (no match
  // recorded yet — seeds apply below), so every cluster is a singleton and
  // Priority() only reads (union-find Find() takes no compression step, the
  // slots are frozen). Scores land in a per-index array, so the schedule is
  // identical for every thread count.
  std::vector<double> priorities(candidates.size());
  const auto score = [&](size_t i) { priorities[i] = Priority(slots[i]); };
  const uint32_t threads = ResolveThreadCount(options_.num_threads);
  // A caller-owned pool (the session's) has no spawn cost, so it pays off
  // on much smaller retained lists than a transient pool does. The gate
  // only decides where the loop runs; the scores are identical either way.
  const size_t min_parallel = pool_ != nullptr ? 256 : 2048;
  if (threads > 1 && candidates.size() >= min_parallel) {
    if (pool_ != nullptr) {
      pool_->ParallelFor(candidates.size(), score);
    } else {
      ThreadPool pool(threads);
      pool.ParallelFor(candidates.size(), score);
    }
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) score(i);
  }
  scheduler_.Prime(std::move(slots), priorities);

  // Apply warm-start seeds: trusted matches at zero budget cost, propagated
  // so their neighborhoods get evidence before anything is compared. Only
  // the seeds actually applied are retained, so a state replay on restore
  // issues the identical RecordMatch sequence.
  for (const Comparison& seed : seeds) {
    const uint32_t id = scheduler_.FindOrAdd(PairKey(seed.a, seed.b));
    if (scheduler_.slot(id).executed) continue;
    scheduler_.slot(id).executed = true;
    seeds_.push_back(seed);
    scheduler_.Erase(id);
    state_->RecordMatch(seed.a, seed.b);
    if (options_.enable_update_phase) {
      UpdatePhase(seed.a, seed.b);
    }
  }
  result_.scheduler_pushes = scheduler_.total_pushes();
  begun_ = true;
}

StepResult ProgressiveResolver::Step(uint64_t max_comparisons) {
  if (!begun_ || exhausted_) {
    StepResult out;
    out.exhausted = exhausted_;
    return out;
  }
  const size_t match_mark = result_.run.matches.size();
  const uint64_t discovered_mark = result_.discovered_pairs;
  const uint64_t budget = options_.matcher.budget;
  StepResult out = RunScheduledComparisons(
      scheduler_, max_comparisons, options_.evidence.staleness_tolerance,
      /*should_stop=*/
      [&] {
        return budget != 0 && result_.run.comparisons_executed >= budget;
      },
      /*current_priority=*/[&](uint32_t id) { return Priority(id); },
      /*execute=*/
      [&](uint32_t id) {
        const uint64_t updates = ExecuteComparison(id);
        SampleProgress();
        return updates;
      });
  exhausted_ = out.exhausted;
  out.discovered_pairs = result_.discovered_pairs - discovered_mark;
  out.matches.assign(result_.run.matches.begin() + match_mark,
                     result_.run.matches.end());
  result_.scheduler_pushes = scheduler_.total_pushes();
  return out;
}

uint64_t ProgressiveResolver::ExecuteComparison(uint32_t id) {
  // ---- Matching phase -----------------------------------------------------
  // Copy what the match needs: the update phase may append slots.
  ScheduleSlot& slot = scheduler_.slot(id);
  slot.executed = true;
  const EntityId a = PairKeyFirst(slot.pair);
  const EntityId b = PairKeySecond(slot.pair);
  const bool discovered = !slot.candidate;
  const double bonus = EvidenceBonus(slot, options_.evidence);
  ++result_.run.comparisons_executed;
  const double profile_sim = evaluator_->Similarity(a, b);
  const double sim = profile_sim + bonus;
  if (sim < options_.matcher.threshold) return 0;

  // ---- Confirmed match ----------------------------------------------------
  const double realized = estimator_.RealizedBenefit(a, b, *state_);
  state_->RecordMatch(a, b);
  cumulative_benefit_ += realized;
  result_.run.matches.push_back(
      MatchEvent{result_.run.comparisons_executed, a, b, sim});
  result_.benefit_trace.push_back(cumulative_benefit_);
  if (profile_sim < options_.matcher.threshold) {
    ++result_.evidence_assisted_matches;
  }
  if (discovered) ++result_.discovered_matches;
  if (on_match_) on_match_(result_.run.matches.back());

  // ---- Update phase -------------------------------------------------------
  return options_.enable_update_phase ? UpdatePhase(a, b) : 0;
}

void ProgressiveResolver::SampleProgress() {
  if (progress_ != nullptr) {
    progress_->OnProgress(result_.run.comparisons_executed,
                          result_.run.matches.size());
  }
}

uint64_t ProgressiveResolver::UpdatePhase(EntityId a, EntityId b) {
  const auto na = graph_->Neighbors(a);
  const auto nb = graph_->Neighbors(b);
  const size_t la =
      std::min<size_t>(na.size(), options_.evidence.max_neighbors_per_side);
  const size_t lb =
      std::min<size_t>(nb.size(), options_.evidence.max_neighbors_per_side);
  const bool clean = options_.mode == ResolutionMode::kCleanClean;
  uint64_t updates = 0;
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      const EntityId x = na[i];
      const EntityId y = nb[j];
      if (x == y) continue;
      if (clean && !collection_->CrossKb(x, y)) continue;
      const uint64_t pair = PairKey(x, y);
      uint32_t id = scheduler_.Find(pair);
      if (id != ComparisonScheduler::kNoSlot && scheduler_.slot(id).executed) {
        continue;
      }
      if (state_->SameCluster(x, y)) continue;
      if (id == ComparisonScheduler::kNoSlot) id = scheduler_.FindOrAdd(pair);
      // Accumulate similarity evidence: the matched pair (a, b) vouches for
      // its aligned neighbors.
      ScheduleSlot& slot = scheduler_.slot(id);
      if (slot.evidence == 0.0 && !slot.candidate) {
        // A candidate blocking never produced: discovered via the graph.
        ++result_.discovered_pairs;
      }
      slot.evidence += options_.evidence.increment;
      slot.has_evidence = true;
      ++updates;
      scheduler_.Push(id, Priority(id));
    }
  }
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
  write_slots(&ScheduleSlot::live, &ScheduleSlot::priority);
  serde::WriteU64(out, scheduler_.total_pushes());

  serde::WriteU64(out, seeds_.size());
  for (const Comparison& seed : seeds_) {
    serde::WriteU32(out, seed.a);
    serde::WriteU32(out, seed.b);
  }

  serde::WriteU64(out, result_.run.comparisons_executed);
  serde::WriteU64(out, result_.run.matches.size());
  for (const MatchEvent& m : result_.run.matches) {
    serde::WriteU64(out, m.comparisons_done);
    serde::WriteU32(out, m.a);
    serde::WriteU32(out, m.b);
    serde::WriteDouble(out, m.similarity);
  }
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
  ComparisonScheduler scheduler;
  const auto slot_of = [&scheduler](uint64_t pair) -> ScheduleSlot& {
    return scheduler.slot(scheduler.FindOrAdd(pair));
  };
  if (!serde::ReadAscendingPairDoubles(
          in, num_entities, [&](uint64_t pair, double likelihood) {
            ScheduleSlot& slot = slot_of(pair);
            slot.likelihood = likelihood;
            slot.candidate = true;
            return true;
          })) {
    return truncated();
  }
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

  std::vector<uint32_t> live;
  std::vector<double> live_priorities;
  if (!serde::ReadAscendingPairDoubles(
          in, num_entities, [&](uint64_t pair, double priority) {
            const uint32_t id = scheduler.FindOrAdd(pair);
            if (scheduler.slot(id).executed) return false;
            live.push_back(id);
            live_priorities.push_back(priority);
            return true;
          })) {
    return truncated();
  }
  uint64_t total_pushes;
  if (!serde::ReadU64(in, total_pushes)) return truncated();

  uint64_t n_seeds;
  if (!serde::ReadU64(in, n_seeds)) return truncated();
  seeds_.clear();
  seeds_.reserve(std::min(n_seeds, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_seeds; ++i) {
    uint32_t a, b;
    if (!serde::ReadU32(in, a) || !serde::ReadU32(in, b)) return truncated();
    if (a >= num_entities || b >= num_entities) {
      return Status::ParseError("seed entity id out of range");
    }
    seeds_.emplace_back(a, b);
  }

  ProgressiveResult result;
  uint64_t n_matches;
  if (!serde::ReadU64(in, result.run.comparisons_executed) ||
      !serde::ReadU64(in, n_matches)) {
    return truncated();
  }
  result.run.matches.reserve(std::min(n_matches, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_matches; ++i) {
    MatchEvent m;
    if (!serde::ReadU64(in, m.comparisons_done) || !serde::ReadU32(in, m.a) ||
        !serde::ReadU32(in, m.b) || !serde::ReadDouble(in, m.similarity)) {
      return truncated();
    }
    if (m.a >= num_entities || m.b >= num_entities) {
      return Status::ParseError("match entity id out of range");
    }
    result.run.matches.push_back(m);
  }
  uint64_t n_trace;
  if (!serde::ReadU64(in, n_trace)) return truncated();
  if (n_trace != n_matches) {
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

  // Rebuild the mutable cluster state by replaying the recorded matches:
  // RecordMatch is deterministic in call order, so the union-find layout and
  // cluster profiles come out identical to the uninterrupted run's.
  state_ = std::make_unique<ResolutionState>(*collection_, graph_);
  for (const Comparison& seed : seeds_) {
    state_->RecordMatch(seed.a, seed.b);
  }
  for (const MatchEvent& m : result.run.matches) {
    state_->RecordMatch(m.a, m.b);
  }
  scheduler.Prime(std::move(live), live_priorities);
  scheduler.set_total_pushes(total_pushes);
  scheduler_ = std::move(scheduler);
  result.scheduler_pushes = total_pushes;
  result_ = std::move(result);
  cumulative_benefit_ = cumulative_benefit;
  exhausted_ = exhausted != 0;
  begun_ = true;
  return Status::Ok();
}

}  // namespace minoan
