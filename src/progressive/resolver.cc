#include "progressive/resolver.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/hash.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Format tag of the serialized loop state; bump on layout changes.
constexpr std::string_view kStateMagic = "MNER-PROG-v1";

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

double ProgressiveResolver::Likelihood(uint64_t pair) const {
  const double* base = likelihood_.Find(pair);
  const double* ev = evidence_.Find(pair);
  if (ev == nullptr) return base == nullptr ? 0.0 : *base;
  return (base == nullptr ? 0.0 : *base) +
         options_.evidence.priority * std::min(1.0, *ev);
}

double ProgressiveResolver::Priority(EntityId a, EntityId b, uint64_t pair,
                                     ResolutionState& state) const {
  const double benefit = estimator_.PairBenefit(a, b, state);
  return Likelihood(pair) *
         (1.0 + options_.benefit_weight * benefit);
}

void ProgressiveResolver::Begin(
    const std::vector<WeightedComparison>& candidates,
    const std::vector<Comparison>& seeds) {
  likelihood_.Clear();
  evidence_.Clear();
  executed_.Clear();
  likelihood_.Reserve(candidates.size());
  executed_.Reserve(candidates.size());
  scheduler_ = ComparisonScheduler();
  result_ = ProgressiveResult();
  seeds_.clear();
  cumulative_benefit_ = 0.0;
  exhausted_ = false;
  state_ = std::make_unique<ResolutionState>(*collection_, graph_);

  // Normalize blocking-graph weights into [0, 1] likelihoods.
  double max_weight = 0.0;
  for (const WeightedComparison& c : candidates) {
    max_weight = std::max(max_weight, c.weight);
  }
  const double scale = max_weight > 0.0 ? 1.0 / max_weight : 1.0;
  std::vector<uint64_t> pairs(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    pairs[i] = PairKey(candidates[i].a, candidates[i].b);
    likelihood_.InsertOrAssign(pairs[i], candidates[i].weight * scale);
  }
  // Score the candidates. Safe to fan out: the state is pristine (no match
  // recorded yet — seeds apply below), so every cluster is a singleton and
  // Priority() only reads (union-find Find() takes no compression step, the
  // likelihood/evidence tables are frozen). Scores land in a per-index
  // array, so the schedule is identical for every thread count.
  std::vector<double> priorities(candidates.size());
  const auto score = [&](size_t i) {
    priorities[i] =
        Priority(candidates[i].a, candidates[i].b, pairs[i], *state_);
  };
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
  for (size_t i = 0; i < candidates.size(); ++i) {
    scheduler_.Push(pairs[i], priorities[i]);
  }

  // Apply warm-start seeds: trusted matches at zero budget cost, propagated
  // so their neighborhoods get evidence before anything is compared. Only
  // the seeds actually applied are retained, so a state replay on restore
  // issues the identical RecordMatch sequence.
  for (const Comparison& seed : seeds) {
    const uint64_t pair = PairKey(seed.a, seed.b);
    if (!executed_.Insert(pair)) continue;
    seeds_.push_back(seed);
    scheduler_.Erase(pair);
    state_->RecordMatch(seed.a, seed.b);
    if (options_.enable_update_phase) {
      UpdatePhase(seed.a, seed.b);
    }
  }
  result_.scheduler_pushes = scheduler_.total_pushes();
  begun_ = true;
}

StepResult ProgressiveResolver::Step(uint64_t max_comparisons) {
  StepResult out;
  if (!begun_ || exhausted_) {
    out.exhausted = exhausted_;
    return out;
  }
  const size_t match_mark = result_.run.matches.size();
  const uint64_t budget = options_.matcher.budget;
  const Stopwatch watch;
  const StepResult stats = RunScheduledComparisons(
      scheduler_, max_comparisons, options_.evidence.staleness_tolerance,
      /*should_stop=*/
      [&] {
        if (budget != 0 && result_.run.comparisons_executed >= budget) {
          return true;
        }
        return options_.budget_millis != 0 &&
               watch.ElapsedMillis() >=
                   static_cast<double>(options_.budget_millis);
      },
      /*already_executed=*/
      [&](uint64_t pair) { return executed_.Contains(pair); },
      /*current_priority=*/
      [&](EntityId a, EntityId b, uint64_t pair) {
        return Priority(a, b, pair, *state_);
      },
      /*execute=*/
      [&](uint64_t pair, EntityId a, EntityId b) {
        ExecuteComparison(pair, a, b);
        SampleProgress();
      });
  out.comparisons = stats.comparisons;
  out.pops = stats.pops;
  out.requeues = stats.requeues;
  out.skips = stats.skips;
  out.exhausted = stats.exhausted;
  exhausted_ = stats.exhausted;
  out.matches.assign(result_.run.matches.begin() + match_mark,
                     result_.run.matches.end());
  result_.scheduler_pushes = scheduler_.total_pushes();
  return out;
}

void ProgressiveResolver::ExecuteComparison(uint64_t pair, EntityId a,
                                            EntityId b) {
  // ---- Matching phase -----------------------------------------------------
  executed_.Insert(pair);
  ++result_.run.comparisons_executed;
  const double profile_sim = evaluator_->Similarity(a, b);
  const double* ev = evidence_.Find(pair);
  const double bonus =
      ev == nullptr ? 0.0
                    : options_.evidence.weight * std::min(1.0, *ev);
  const double sim = profile_sim + bonus;
  if (sim < options_.matcher.threshold) return;

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
  if (!likelihood_.Contains(pair)) {
    ++result_.discovered_matches;
  }
  if (on_match_) on_match_(result_.run.matches.back());

  // ---- Update phase -------------------------------------------------------
  if (options_.enable_update_phase) {
    UpdatePhase(a, b);
  }
}

void ProgressiveResolver::SampleProgress() {
  if (progress_ != nullptr) {
    progress_->OnProgress(result_.run.comparisons_executed,
                          result_.run.matches.size());
  }
}

ProgressiveResult ProgressiveResolver::Resolve(
    const std::vector<WeightedComparison>& candidates) {
  return ResolveWithSeeds(candidates, {});
}

ProgressiveResult ProgressiveResolver::ResolveWithSeeds(
    const std::vector<WeightedComparison>& candidates,
    const std::vector<Comparison>& seeds) {
  Begin(candidates, seeds);
  Step(0);
  ProgressiveResult out = std::move(result_);
  // One-shot semantics: the run is over, so drop the loop state instead of
  // carrying O(candidates) of scratch until the next Begin (pre-refactor
  // these were function locals freed on return).
  begun_ = false;
  likelihood_ = {};
  evidence_ = {};
  executed_ = {};
  scheduler_ = ComparisonScheduler();
  state_.reset();
  seeds_.clear();
  result_ = ProgressiveResult();
  return out;
}

void ProgressiveResolver::UpdatePhase(EntityId a, EntityId b) {
  const auto na = graph_->Neighbors(a);
  const auto nb = graph_->Neighbors(b);
  const size_t la =
      std::min<size_t>(na.size(), options_.evidence.max_neighbors_per_side);
  const size_t lb =
      std::min<size_t>(nb.size(), options_.evidence.max_neighbors_per_side);
  const bool clean = options_.mode == ResolutionMode::kCleanClean;
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      const EntityId x = na[i];
      const EntityId y = nb[j];
      if (x == y) continue;
      if (clean && !collection_->CrossKb(x, y)) continue;
      const uint64_t pair = PairKey(x, y);
      if (executed_.Contains(pair)) continue;
      if (state_->SameCluster(x, y)) continue;
      // Accumulate similarity evidence: the matched pair (a, b) vouches for
      // its aligned neighbors. The reference stays valid through the
      // increment below — nothing inserts into evidence_ before it.
      double& ev = evidence_.FindOrInsert(pair);
      const bool first_sighting = ev == 0.0 && !likelihood_.Contains(pair);
      ev += options_.evidence.increment;
      if (first_sighting) {
        // A candidate blocking never produced: discovered via the graph.
        ++result_.discovered_pairs;
      }
      scheduler_.Push(pair, Priority(x, y, pair, *state_));
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

namespace {

/// Writes an unordered (pair -> double) map in canonical ascending-key order.
void WritePairDoubleMap(std::ostream& out, const FlatPairMap<double>& map) {
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(map.size());
  map.ForEach([&entries](uint64_t pair, const double& value) {
    entries.emplace_back(pair, value);
  });
  std::sort(entries.begin(), entries.end());
  serde::WriteU64(out, entries.size());
  for (const auto& [pair, value] : entries) {
    serde::WriteU64(out, pair);
    serde::WriteDouble(out, value);
  }
}

using serde::kMaxUpfrontReserve;
using serde::ValidPairKey;

bool ReadPairDoubleMap(std::istream& in, uint32_t num_entities,
                       FlatPairMap<double>& map) {
  uint64_t n;
  if (!serde::ReadU64(in, n)) return false;
  map.Clear();
  map.Reserve(std::min(n, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pair;
    double value;
    if (!serde::ReadU64(in, pair) || !serde::ReadDouble(in, value) ||
        !ValidPairKey(pair, num_entities)) {
      return false;
    }
    map.InsertOrAssign(pair, value);
  }
  return true;
}

}  // namespace

Status ProgressiveResolver::SaveState(std::ostream& out) const {
  if (!begun_) {
    return Status::FailedPrecondition(
        "no active resolution to save (call Begin first)");
  }
  serde::WriteString(out, kStateMagic);
  WritePairDoubleMap(out, likelihood_);
  WritePairDoubleMap(out, evidence_);

  std::vector<uint64_t> executed;
  executed.reserve(executed_.size());
  executed_.ForEach([&executed](uint64_t pair) { executed.push_back(pair); });
  std::sort(executed.begin(), executed.end());
  serde::WriteU64(out, executed.size());
  for (const uint64_t pair : executed) serde::WriteU64(out, pair);

  const auto live = scheduler_.LiveEntries();
  serde::WriteU64(out, live.size());
  for (const auto& [pair, priority] : live) {
    serde::WriteU64(out, pair);
    serde::WriteDouble(out, priority);
  }
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
  if (!ReadPairDoubleMap(in, num_entities, likelihood_)) return truncated();
  if (!ReadPairDoubleMap(in, num_entities, evidence_)) return truncated();

  uint64_t n_executed;
  if (!serde::ReadU64(in, n_executed)) return truncated();
  executed_.Clear();
  executed_.Reserve(std::min(n_executed, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_executed; ++i) {
    uint64_t pair;
    if (!serde::ReadU64(in, pair) || !ValidPairKey(pair, num_entities)) {
      return truncated();
    }
    executed_.Insert(pair);
  }

  uint64_t n_live;
  if (!serde::ReadU64(in, n_live)) return truncated();
  std::vector<std::pair<uint64_t, double>> live;
  live.reserve(std::min(n_live, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_live; ++i) {
    uint64_t pair;
    double priority;
    if (!serde::ReadU64(in, pair) || !serde::ReadDouble(in, priority) ||
        !ValidPairKey(pair, num_entities)) {
      return truncated();
    }
    live.emplace_back(pair, priority);
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
  scheduler_.RestoreFrom(live, total_pushes);
  result.scheduler_pushes = total_pushes;
  result_ = std::move(result);
  cumulative_benefit_ = cumulative_benefit;
  exhausted_ = exhausted != 0;
  begun_ = true;
  return Status::Ok();
}

}  // namespace minoan
