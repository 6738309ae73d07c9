// Tests for the pay-as-you-go Session API (core/session.h): budgeted
// stepping parity with the one-shot run, checkpoint/restore equivalence,
// observer callback ordering, and options validation.
//
// The central invariants, per the Session contract:
//   * Step(n/2) twice ≡ Step(n) once ≡ Step(0) once — byte-for-byte on
//     match sequence, report counters, and benefit trace;
//   * checkpoint → restore → step reproduces the uninterrupted run exactly.

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "mutate_bytes.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/serde.h"

namespace minoan {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

EntityCollection MakeCloud(uint64_t seed, bool periphery_heavy = false) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 220;
  cfg.num_kbs = 4;
  cfg.center_kbs = periphery_heavy ? 1 : 2;
  if (periphery_heavy) cfg.periphery_token_overlap = 0.2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  EXPECT_TRUE(collection.ok());
  return std::move(collection).value();
}

WorkflowOptions DefaultOptions() {
  WorkflowOptions options;
  options.progressive.matcher.threshold = 0.3;
  return options;
}

/// Strict equality of two progressive results: the match sequence (ids,
/// stamps, and similarity BITS), the benefit trace bits, and every counter.
void ExpectSameProgressive(const ProgressiveResult& a,
                           const ProgressiveResult& b) {
  EXPECT_EQ(a.run.comparisons_executed, b.run.comparisons_executed);
  ASSERT_EQ(a.run.matches.size(), b.run.matches.size());
  for (size_t i = 0; i < a.run.matches.size(); ++i) {
    EXPECT_EQ(a.run.matches[i].a, b.run.matches[i].a) << "match " << i;
    EXPECT_EQ(a.run.matches[i].b, b.run.matches[i].b) << "match " << i;
    EXPECT_EQ(a.run.matches[i].comparisons_done,
              b.run.matches[i].comparisons_done)
        << "match " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.run.matches[i].similarity),
              std::bit_cast<uint64_t>(b.run.matches[i].similarity))
        << "match " << i;
  }
  ASSERT_EQ(a.benefit_trace.size(), b.benefit_trace.size());
  for (size_t i = 0; i < a.benefit_trace.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.benefit_trace[i]),
              std::bit_cast<uint64_t>(b.benefit_trace[i]))
        << "trace " << i;
  }
  EXPECT_EQ(a.discovered_pairs, b.discovered_pairs);
  EXPECT_EQ(a.discovered_matches, b.discovered_matches);
  EXPECT_EQ(a.evidence_assisted_matches, b.evidence_assisted_matches);
  EXPECT_EQ(a.scheduler_pushes, b.scheduler_pushes);
}

void ExpectSameReport(const ResolutionReport& a, const ResolutionReport& b) {
  EXPECT_EQ(a.blocks_built, b.blocks_built);
  EXPECT_EQ(a.blocks_after_cleaning, b.blocks_after_cleaning);
  EXPECT_EQ(a.comparisons_before_meta, b.comparisons_before_meta);
  EXPECT_EQ(a.comparisons_after_meta, b.comparisons_after_meta);
  EXPECT_EQ(a.meta_stats.graph_edges, b.meta_stats.graph_edges);
  EXPECT_EQ(a.meta_stats.retained_edges, b.meta_stats.retained_edges);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].name, b.phases[i].name);
    EXPECT_EQ(a.phases[i].output_cardinality, b.phases[i].output_cardinality);
  }
  ExpectSameProgressive(a.progressive, b.progressive);
}

// ---------------------------------------------------------------------------
// Step-split parity
// ---------------------------------------------------------------------------

TEST(SessionTest, OneShotStepIsReproducible) {
  const EntityCollection collection = MakeCloud(311);
  const WorkflowOptions options = DefaultOptions();

  auto one_step = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(one_step.ok());
  one_step->Step(0);

  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  const StepResult step = session->Step(0);
  EXPECT_TRUE(step.exhausted);
  EXPECT_TRUE(session->exhausted());
  ExpectSameReport(one_step->Report(), session->Report());
}

TEST(SessionTest, StepSplitParity) {
  const EntityCollection collection = MakeCloud(313, /*periphery_heavy=*/true);
  const WorkflowOptions options = DefaultOptions();

  auto whole = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(whole.ok());
  whole->Step(0);

  // The same run bought in installments of 97 comparisons: the concatenated
  // step outputs and the final report must be byte-identical.
  auto split = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(split.ok());
  uint64_t total_comparisons = 0;
  std::vector<MatchEvent> streamed;
  while (!split->exhausted()) {
    const StepResult step = split->Step(97);
    total_comparisons += step.comparisons;
    streamed.insert(streamed.end(), step.matches.begin(), step.matches.end());
    ASSERT_LE(step.comparisons, 97u);
  }
  EXPECT_EQ(total_comparisons, whole->comparisons_spent());
  ExpectSameReport(whole->Report(), split->Report());

  // Per-step match deltas concatenate to the full sequence.
  const ResolutionReport report = split->Report();
  ASSERT_EQ(streamed.size(), report.progressive.run.matches.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].a, report.progressive.run.matches[i].a);
    EXPECT_EQ(streamed[i].b, report.progressive.run.matches[i].b);
  }
}

TEST(SessionTest, LoopCountersAccountForEveryPop) {
  const EntityCollection collection = MakeCloud(313, /*periphery_heavy=*/true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter& pops = registry.counter("progressive.pops");
  obs::Counter& requeues = registry.counter("progressive.requeues");
  obs::Counter& skips = registry.counter("progressive.skips");
  obs::Counter& comparisons = registry.counter("progressive.comparisons");
  obs::Counter& evidence_updates =
      registry.counter("progressive.evidence_updates");
  obs::Counter& discovered = registry.counter("progressive.discovered_pairs");
  obs::Counter& discovered_matches =
      registry.counter("progressive.discovered_matches");
  obs::Counter& update_fanout = registry.counter("progressive.update_fanout");
  for (obs::Counter* c : {&pops, &requeues, &skips, &comparisons,
                           &evidence_updates, &discovered,
                           &discovered_matches, &update_fanout}) {
    c->Reset();
  }

  // Entity coverage decays a pair's benefit once either side is matched,
  // so priorities drift down and the loop re-queues stale entries.
  WorkflowOptions options = DefaultOptions();
  options.progressive.benefit = BenefitModel::kEntityCoverage;
  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  StepResult total;
  while (!session->exhausted()) {
    const StepResult step = session->Step(97);
    EXPECT_EQ(step.pops, step.comparisons + step.requeues + step.skips);
    total.pops += step.pops;
    total.requeues += step.requeues;
    total.skips += step.skips;
    total.comparisons += step.comparisons;
    total.evidence_updates += step.evidence_updates;
    total.discovered_pairs += step.discovered_pairs;
    total.discovered_matches += step.discovered_matches;
    total.update_fanout += step.update_fanout;
    // Every evidence update is one of the pairs its update phase considered.
    EXPECT_GE(step.update_fanout, step.evidence_updates);
  }
  EXPECT_EQ(total.comparisons, session->comparisons_spent());
  EXPECT_EQ(total.pops, total.comparisons + total.requeues + total.skips);
  EXPECT_GT(total.requeues, 0u);
  EXPECT_GT(total.evidence_updates, 0u);
  EXPECT_EQ(pops.Value(), total.pops);
  EXPECT_EQ(requeues.Value(), total.requeues);
  EXPECT_EQ(skips.Value(), total.skips);
  EXPECT_EQ(comparisons.Value(), total.comparisons);
  EXPECT_EQ(evidence_updates.Value(), total.evidence_updates);
  EXPECT_EQ(discovered.Value(), total.discovered_pairs);
  EXPECT_EQ(discovered_matches.Value(), total.discovered_matches);
  EXPECT_EQ(update_fanout.Value(), total.update_fanout);
  EXPECT_GT(total.update_fanout, total.evidence_updates);

  // Without seeds, every push is a primed candidate, a stale re-queue, or
  // an evidence update, and every discovery happens inside a Step.
  const ResolutionReport report = session->Report();
  EXPECT_EQ(report.progressive.scheduler_pushes,
            report.comparisons_after_meta + requeues.Value() +
                evidence_updates.Value());
  EXPECT_EQ(discovered.Value(), report.progressive.discovered_pairs);
  EXPECT_EQ(discovered_matches.Value(),
            report.progressive.discovered_matches);
}

TEST(SessionTest, StepSplitParityWithSeeds) {
  const EntityCollection collection = MakeCloud(317);
  ASSERT_GT(collection.same_as_links().size(), 0u);
  WorkflowOptions options = DefaultOptions();
  options.use_same_as_seeds = true;

  auto one_step = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(one_step.ok());
  one_step->Step(0);

  auto split = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(split.ok());
  while (!split->exhausted()) split->Step(61);
  ExpectSameReport(one_step->Report(), split->Report());
}

TEST(SessionTest, OverallBudgetCapsStepping) {
  const EntityCollection collection = MakeCloud(331);
  WorkflowOptions options = DefaultOptions();
  options.progressive.matcher.budget = 50;

  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  const StepResult first = session->Step(30);
  EXPECT_EQ(first.comparisons, 30u);
  const StepResult second = session->Step(30);
  EXPECT_EQ(second.comparisons, 20u) << "workflow budget must cap the step";
  EXPECT_FALSE(second.exhausted) << "budget-capped is not queue-drained";
  const StepResult third = session->Step(30);
  EXPECT_EQ(third.comparisons, 0u);
  EXPECT_EQ(session->comparisons_spent(), 50u);
  EXPECT_TRUE(session->finished())
      << "budget consumption must terminate while(!finished()) loops";

  auto one_step = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(one_step.ok());
  one_step->Step(0);
  ExpectSameReport(one_step->Report(), session->Report());
}

TEST(SessionTest, SteppingPastExhaustionIsANoOp) {
  const EntityCollection collection = MakeCloud(337);
  auto session = ResolutionSession::Open(collection, DefaultOptions());
  ASSERT_TRUE(session.ok());
  session->Step(0);
  ASSERT_TRUE(session->exhausted());
  EXPECT_TRUE(session->finished());
  const uint64_t spent = session->comparisons_spent();
  const StepResult extra = session->Step(100);
  EXPECT_EQ(extra.comparisons, 0u);
  EXPECT_TRUE(extra.exhausted);
  EXPECT_TRUE(extra.matches.empty());
  EXPECT_EQ(session->comparisons_spent(), spent);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

TEST(SessionTest, CheckpointRestoreReproducesUninterruptedRun) {
  const EntityCollection collection = MakeCloud(347, /*periphery_heavy=*/true);
  const WorkflowOptions options = DefaultOptions();

  auto uninterrupted = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(uninterrupted.ok());
  uninterrupted->Step(0);

  // Interrupt mid-run (mid-evidence, mid-schedule), serialize, restore in a
  // "new process", finish. Every byte of the outcome must agree.
  const uint64_t total = uninterrupted->comparisons_spent();
  ASSERT_GT(total, 10u);
  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  session->Step(total / 2);
  ASSERT_FALSE(session->exhausted());
  std::stringstream state;
  ASSERT_TRUE(session->Checkpoint(state).ok());

  auto restored = ResolutionSession::Restore(collection, options, state);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->comparisons_spent(), total / 2);
  restored->Step(0);
  ExpectSameReport(uninterrupted->Report(), restored->Report());
}

TEST(SessionTest, CheckpointEveryFewStepsStaysExact) {
  const EntityCollection collection = MakeCloud(349);
  WorkflowOptions options = DefaultOptions();
  options.use_same_as_seeds = true;  // exercise seed replay on restore

  auto uninterrupted = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(uninterrupted.ok());
  uninterrupted->Step(0);

  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  int round_trips = 0;
  while (!session->exhausted()) {
    session->Step(71);
    std::stringstream state;
    ASSERT_TRUE(session->Checkpoint(state).ok());
    auto restored = ResolutionSession::Restore(collection, options, state);
    ASSERT_TRUE(restored.ok()) << restored.status();
    session = std::move(restored);
    ++round_trips;
    ASSERT_LT(round_trips, 10000) << "runaway loop";
  }
  EXPECT_GT(round_trips, 1);
  ExpectSameReport(uninterrupted->Report(), session->Report());
}

TEST(SessionTest, RestoreRejectsDifferentCollection) {
  const EntityCollection collection = MakeCloud(353);
  const EntityCollection other = MakeCloud(359);
  const WorkflowOptions options = DefaultOptions();
  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  session->Step(50);
  std::stringstream state;
  ASSERT_TRUE(session->Checkpoint(state).ok());
  auto restored = ResolutionSession::Restore(other, options, state);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("collection"), std::string::npos);
}

TEST(SessionTest, RestoreRejectsDifferentOptions) {
  const EntityCollection collection = MakeCloud(367);
  const WorkflowOptions options = DefaultOptions();
  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  session->Step(50);
  std::stringstream state;
  ASSERT_TRUE(session->Checkpoint(state).ok());
  WorkflowOptions changed = options;
  changed.progressive.matcher.threshold = 0.9;
  auto restored = ResolutionSession::Restore(collection, changed, state);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("options"), std::string::npos);
}

// The schedule sections of a resolver state (ProgressiveResolver::SaveState)
// split out of a session checkpoint, so a test can rewrite them.
struct SavedSchedule {
  using Entries = std::vector<std::pair<uint64_t, double>>;
  std::string head;  // through the resolver-state magic
  Entries likelihood;
  Entries evidence;
  std::vector<uint64_t> executed;
  Entries live;
  std::string tail;  // the push counter onwards

  static SavedSchedule Split(const std::string& bytes) {
    SavedSchedule out;
    const std::string magic = "MNER-PROG-v1";
    const size_t at = bytes.find(magic);
    EXPECT_NE(at, std::string::npos);
    out.head = bytes.substr(0, at + magic.size());
    std::istringstream in(bytes.substr(out.head.size()));
    const auto read_entries = [&in](Entries& entries) {
      uint64_t n = 0;
      EXPECT_TRUE(serde::ReadU64(in, n));
      entries.resize(n);
      for (auto& [pair, value] : entries) {
        EXPECT_TRUE(serde::ReadU64(in, pair) && serde::ReadDouble(in, value));
      }
    };
    read_entries(out.likelihood);
    read_entries(out.evidence);
    uint64_t n = 0;
    EXPECT_TRUE(serde::ReadU64(in, n));
    out.executed.resize(n);
    for (uint64_t& pair : out.executed) EXPECT_TRUE(serde::ReadU64(in, pair));
    read_entries(out.live);
    out.tail.assign(std::istreambuf_iterator<char>(in), {});
    return out;
  }

  std::string Join() const {
    std::ostringstream out;
    out << head;
    const auto write_entries = [&out](const Entries& entries) {
      serde::WriteU64(out, entries.size());
      for (const auto& [pair, value] : entries) {
        serde::WriteU64(out, pair);
        serde::WriteDouble(out, value);
      }
    };
    write_entries(likelihood);
    write_entries(evidence);
    serde::WriteU64(out, executed.size());
    for (const uint64_t pair : executed) serde::WriteU64(out, pair);
    write_entries(live);
    out << tail;
    return out.str();
  }
};

TEST(SessionTest, RestoreRejectsNonCanonicalSchedule) {
  const EntityCollection collection = MakeCloud(379, /*periphery_heavy=*/true);
  const WorkflowOptions options = DefaultOptions();
  auto whole = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(whole.ok());
  whole->Step(0);
  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  session->Step(whole->comparisons_spent() / 2);  // mid-evidence, mid-schedule
  std::stringstream state;
  ASSERT_TRUE(session->Checkpoint(state).ok());
  const std::string bytes = state.str();
  const SavedSchedule saved = SavedSchedule::Split(bytes);
  ASSERT_EQ(saved.Join(), bytes);  // the split is exact
  ASSERT_FALSE(saved.evidence.empty());
  ASSERT_FALSE(saved.executed.empty());
  ASSERT_GE(saved.live.size(), 2u);

  std::vector<std::pair<std::string, SavedSchedule>> mutants;
  const auto mutant = [&](const std::string& name) -> SavedSchedule& {
    mutants.emplace_back(name, saved);
    return mutants.back().second;
  };
  mutant("NaN live priority").live[0].second =
      std::numeric_limits<double>::quiet_NaN();
  mutant("infinite evidence").evidence[0].second =
      std::numeric_limits<double>::infinity();
  {
    SavedSchedule& m = mutant("two live keys swapped");
    std::swap(m.live[0], m.live[1]);
  }
  {
    SavedSchedule& m = mutant("duplicated executed key");
    m.executed.insert(m.executed.begin() + 1, m.executed[0]);
  }
  {
    SavedSchedule& m = mutant("live pair also executed");
    const uint64_t pair = m.live[0].first;
    m.executed.insert(
        std::upper_bound(m.executed.begin(), m.executed.end(), pair), pair);
  }
  for (const auto& [name, m] : mutants) {
    std::stringstream in(m.Join());
    auto restored = ResolutionSession::Restore(collection, options, in);
    ASSERT_FALSE(restored.ok()) << name;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError) << name;
  }
  std::stringstream in(bytes);
  EXPECT_TRUE(ResolutionSession::Restore(collection, options, in).ok());
}

TEST(SessionTest, RestoreRejectsGarbageAndTruncation) {
  const EntityCollection collection = MakeCloud(373);
  const WorkflowOptions options = DefaultOptions();
  {
    std::stringstream garbage("definitely not a checkpoint");
    auto restored = ResolutionSession::Restore(collection, options, garbage);
    EXPECT_FALSE(restored.ok());
  }
  {
    auto session = ResolutionSession::Open(collection, options);
    ASSERT_TRUE(session.ok());
    session->Step(40);
    std::stringstream state;
    ASSERT_TRUE(session->Checkpoint(state).ok());
    const std::string bytes = state.str();
    // Every strict prefix must be rejected cleanly (no crash, no partial
    // session). Sample a few cut points including the tail.
    for (const size_t cut :
         {size_t{0}, size_t{5}, bytes.size() / 3, bytes.size() - 1}) {
      std::stringstream truncated(bytes.substr(0, cut));
      auto restored =
          ResolutionSession::Restore(collection, options, truncated);
      EXPECT_FALSE(restored.ok()) << "cut at " << cut;
    }
    // A bit-flipped body must never produce a session that indexes out of
    // bounds when stepped: either the restore is rejected, or the mutation
    // hit a value field and the session still steps within entity range.
    // (Out-of-range entity ids in pair keys are rejected at parse time.)
    for (const size_t flip_at :
         {bytes.size() / 2, bytes.size() / 2 + 9, bytes.size() - 30}) {
      std::string mutated = bytes;
      mutated[flip_at] = static_cast<char>(mutated[flip_at] ^ 0x80);
      std::stringstream stream(mutated);
      auto restored = ResolutionSession::Restore(collection, options, stream);
      if (restored.ok()) restored->Step(100);  // must not crash
    }
  }
}

// Seeded bit flips, truncations and byte insertions (testutil::MutateBytes)
// of a small session's MNER-SESS-v1 checkpoint. Each mutant must be
// rejected with a Status, or restore to a session that steps to the end.
// Run under ASan (the "asan" ctest label), no mutant may read or write out
// of bounds either.
TEST(SessionTest, MutatedCheckpointsRestoreOrFailWithStatus) {
  const EntityCollection collection = MakeCloud(397);
  const WorkflowOptions options = DefaultOptions();
  auto session = ResolutionSession::Open(collection, options);
  ASSERT_TRUE(session.ok());
  session->Step(60);
  std::stringstream state;
  ASSERT_TRUE(session->Checkpoint(state).ok());
  const std::string bytes = state.str();

  size_t restored = 0;
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 1500; ++seed) {
    Rng rng(seed);
    std::istringstream in(testutil::MutateBytes(bytes, rng));
    auto mutant = ResolutionSession::Restore(collection, options, in);
    if (!mutant.ok()) {
      ++rejected;
      continue;
    }
    ++restored;
    mutant->Step(0);
  }
  // Both outcomes occur: the fuzz reaches past the loader's checks.
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------------

class RecordingObserver : public MatchObserver {
 public:
  void OnPhase(const PhaseStats& phase) override {
    phases.push_back(phase.name);
    phases_seen_before_first_match =
        matches.empty() ? phases.size() : phases_seen_before_first_match;
  }
  void OnMatch(const MatchEvent& event) override { matches.push_back(event); }

  std::vector<std::string> phases;
  std::vector<MatchEvent> matches;
  size_t phases_seen_before_first_match = 0;
};

TEST(SessionTest, ObserverStreamsPhasesThenMatchesInOrder) {
  const EntityCollection collection = MakeCloud(379);
  RecordingObserver observer;
  auto session =
      ResolutionSession::Open(collection, DefaultOptions(), &observer);
  ASSERT_TRUE(session.ok());

  const std::vector<std::string> expected_phases = {
      "blocking", "block-cleaning", "meta-blocking", "graph+evaluator"};
  EXPECT_EQ(observer.phases, expected_phases);
  EXPECT_TRUE(observer.matches.empty()) << "no comparisons spent yet";

  while (!session->exhausted()) session->Step(83);

  const ResolutionReport report = session->Report();
  ASSERT_EQ(observer.matches.size(), report.progressive.run.matches.size());
  for (size_t i = 0; i < observer.matches.size(); ++i) {
    EXPECT_EQ(observer.matches[i].a, report.progressive.run.matches[i].a);
    EXPECT_EQ(observer.matches[i].b, report.progressive.run.matches[i].b);
    EXPECT_EQ(observer.matches[i].comparisons_done,
              report.progressive.run.matches[i].comparisons_done);
    if (i > 0) {
      EXPECT_GE(observer.matches[i].comparisons_done,
                observer.matches[i - 1].comparisons_done)
          << "matches must stream in discovery order";
    }
  }
}

// ---------------------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------------------

TEST(SessionTest, ValidateAcceptsDefaultsAndBoundaries) {
  EXPECT_TRUE(WorkflowOptions{}.Validate().ok());
  WorkflowOptions options;
  options.filter_ratio = 1.0;  // documented: 1 disables filtering
  options.num_threads = 0;     // documented: hardware concurrency
  options.progressive.matcher.threshold = 0.0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SessionTest, ValidateRejectsBadFilterRatio) {
  for (const double bad : {0.0, -2.0, 1.5}) {
    WorkflowOptions options;
    options.filter_ratio = bad;
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("filter_ratio"), std::string::npos);
    // Open must refuse the same way, not crash mid-pipeline.
    const EntityCollection collection = MakeCloud(383);
    EXPECT_FALSE(ResolutionSession::Open(collection, options).ok());
  }
}

TEST(SessionTest, ValidateRejectsBadThreadCounts) {
  WorkflowOptions options;
  options.num_threads = 4096;
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("num_threads"), std::string::npos);
}

TEST(SessionTest, ValidateRejectsBadThresholdAndEvidence) {
  {
    WorkflowOptions options;
    options.progressive.matcher.threshold = 1.5;
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("threshold"), std::string::npos);
  }
  {
    WorkflowOptions options;
    options.progressive.evidence.staleness_tolerance = -0.1;
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("staleness"), std::string::npos);
  }
}

TEST(SessionTest, ValidateRejectsMismatchedResolutionModes) {
  WorkflowOptions options;
  options.meta.mode = ResolutionMode::kDirty;
  options.progressive.mode = ResolutionMode::kDirty;
  EXPECT_TRUE(options.Validate().ok());
  options.progressive.mode = ResolutionMode::kCleanClean;
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("meta.mode"), std::string::npos);
  EXPECT_NE(status.message().find("progressive.mode"), std::string::npos);
  const EntityCollection collection = MakeCloud(389);
  EXPECT_FALSE(ResolutionSession::Open(collection, options).ok());
}

// ---------------------------------------------------------------------------
// Evidence options sharing (batch vs online defaults)
// ---------------------------------------------------------------------------

TEST(SessionTest, EvidenceDefaultsAreBitIdenticalAcrossDrivers) {
  // The five knobs were deduplicated into EvidenceOptions; both drivers now
  // embed the same struct, so their defaults cannot drift apart.
  const EvidenceOptions defaults;
  EXPECT_EQ(std::bit_cast<uint64_t>(defaults.increment),
            std::bit_cast<uint64_t>(0.5));
  EXPECT_EQ(std::bit_cast<uint64_t>(defaults.weight),
            std::bit_cast<uint64_t>(0.3));
  EXPECT_EQ(std::bit_cast<uint64_t>(defaults.priority),
            std::bit_cast<uint64_t>(0.4));
  EXPECT_EQ(defaults.max_neighbors_per_side, 16u);
  EXPECT_EQ(std::bit_cast<uint64_t>(defaults.staleness_tolerance),
            std::bit_cast<uint64_t>(0.25));
}

}  // namespace
}  // namespace minoan
