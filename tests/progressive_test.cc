// Unit tests for the progressive module: scheduler, resolution state,
// benefit models, and the full scheduling/matching/update loop.

#include <algorithm>
#include <bit>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/progressive_metrics.h"
#include "gtest/gtest.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "blocking/blocking_method.h"
#include "progressive/benefit.h"
#include "progressive/resolver.h"
#include "progressive/scheduler.h"
#include "progressive/state.h"
#include "rdf/ntriples.h"
#include "util/hash.h"

namespace minoan {
namespace {

std::vector<rdf::Triple> Parse(const std::string& doc) {
  rdf::NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// ComparisonScheduler
// ---------------------------------------------------------------------------

// Schedules `pair` at `priority` through its slot.
void PushPair(ComparisonScheduler& s, uint64_t pair, double priority) {
  s.Push(s.FindOrAdd(pair), priority);
}

// Pops the next live pair; false when nothing is live.
bool PopPair(ComparisonScheduler& s, uint64_t& pair, double& priority) {
  uint32_t slot;
  if (!s.Pop(slot, priority)) return false;
  pair = s.slot(slot).pair;
  return true;
}

TEST(SchedulerTest, PopsInPriorityOrder) {
  ComparisonScheduler s;
  PushPair(s, PairKey(0, 1), 0.5);
  PushPair(s, PairKey(0, 2), 0.9);
  PushPair(s, PairKey(0, 3), 0.7);
  uint64_t pair;
  double priority;
  ASSERT_TRUE(PopPair(s, pair, priority));
  EXPECT_EQ(pair, PairKey(0, 2));
  ASSERT_TRUE(PopPair(s, pair, priority));
  EXPECT_EQ(pair, PairKey(0, 3));
  ASSERT_TRUE(PopPair(s, pair, priority));
  EXPECT_EQ(pair, PairKey(0, 1));
  EXPECT_FALSE(PopPair(s, pair, priority));
}

TEST(SchedulerTest, RepushInvalidatesOldEntry) {
  ComparisonScheduler s;
  PushPair(s, PairKey(0, 1), 0.9);
  PushPair(s, PairKey(0, 2), 0.5);
  PushPair(s, PairKey(0, 1), 0.1);  // downgrade
  uint64_t pair;
  double priority;
  ASSERT_TRUE(PopPair(s, pair, priority));
  EXPECT_EQ(pair, PairKey(0, 2));  // 0.5 now highest live
  ASSERT_TRUE(PopPair(s, pair, priority));
  EXPECT_EQ(pair, PairKey(0, 1));
  EXPECT_DOUBLE_EQ(priority, 0.1);
  EXPECT_FALSE(PopPair(s, pair, priority));  // stale 0.9 entry discarded
}

TEST(SchedulerTest, EachPairPoppedOnce) {
  ComparisonScheduler s;
  for (int i = 0; i < 10; ++i) {
    PushPair(s, PairKey(0, 1), 0.1 * (i + 1));  // same pair re-pushed 10 times
  }
  uint64_t pair;
  double priority;
  int pops = 0;
  while (PopPair(s, pair, priority)) ++pops;
  EXPECT_EQ(pops, 1);
  EXPECT_EQ(s.total_pushes(), 10u);
}

TEST(SchedulerTest, TieBreakDeterministic) {
  ComparisonScheduler s;
  PushPair(s, PairKey(2, 3), 0.5);
  PushPair(s, PairKey(0, 1), 0.5);
  uint64_t pair;
  double priority;
  ASSERT_TRUE(PopPair(s, pair, priority));
  EXPECT_EQ(pair, PairKey(0, 1));  // smaller pair first on tie
}

TEST(SchedulerTest, EraseRemovesLivePair) {
  ComparisonScheduler s;
  PushPair(s, PairKey(0, 1), 0.9);
  s.Erase(s.Find(PairKey(0, 1)));
  uint64_t pair;
  double priority;
  EXPECT_FALSE(PopPair(s, pair, priority));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, SlotHoldsNewestPushedPriority) {
  ComparisonScheduler s;
  EXPECT_EQ(s.Find(PairKey(0, 1)), ComparisonScheduler::kNoSlot);
  PushPair(s, PairKey(0, 1), 0.4);
  const uint32_t slot = s.Find(PairKey(0, 1));
  ASSERT_NE(slot, ComparisonScheduler::kNoSlot);
  EXPECT_TRUE(s.slot(slot).live);
  EXPECT_DOUBLE_EQ(s.slot(slot).priority, 0.4);
  PushPair(s, PairKey(0, 1), 0.6);
  EXPECT_EQ(s.Find(PairKey(0, 1)), slot);  // one slot per pair
  EXPECT_DOUBLE_EQ(s.slot(slot).priority, 0.6);
  s.Erase(slot);
  EXPECT_FALSE(s.slot(slot).live);
}

// Reference order of the schedule: priority descending, then pair ascending.
struct ScheduleOrder {
  bool operator()(const std::pair<double, uint64_t>& x,
                  const std::pair<double, uint64_t>& y) const {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  }
};

// Model check: a primed run merged with the heap must behave exactly like a
// set of live (priority, pair) entries under the schedule order, through
// random pushes (new pairs, re-pushes up/down/equal), erases, and pops.
// Priorities come from a small set, so ties inside the run and between run
// and heap entries are common.
TEST(SchedulerTest, MatchesReferenceQueueUnderRandomOperations) {
  constexpr double kLevels[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0};
  constexpr int kNumLevels = 6;
  constexpr uint32_t kEntities = 120;  // 7,140 distinct pairs
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    const auto random_pair = [&] {
      const uint32_t a = static_cast<uint32_t>(rng() % kEntities);
      uint32_t b = static_cast<uint32_t>(rng() % (kEntities - 1));
      if (b >= a) ++b;
      return PairKey(a, b);
    };
    ComparisonScheduler s;
    std::set<std::pair<double, uint64_t>, ScheduleOrder> ref;
    std::map<uint64_t, int> level_of;  // live pair -> its level in ref
    uint64_t pushes = 0;
    const auto schedule = [&](uint64_t pair, int level) {
      const auto it = level_of.find(pair);
      if (it != level_of.end()) ref.erase({kLevels[it->second], pair});
      ref.insert({kLevels[level], pair});
      level_of[pair] = level;
      ++pushes;
    };

    // Prime 0-5,000 entries (a pair may be listed twice: last one wins).
    const size_t n_prime = rng() % 5001;
    std::vector<uint32_t> slots;
    std::vector<double> priorities;
    for (size_t i = 0; i < n_prime; ++i) {
      const uint64_t pair = random_pair();
      const int level = static_cast<int>(rng() % kNumLevels);
      slots.push_back(s.FindOrAdd(pair));
      priorities.push_back(kLevels[level]);
      schedule(pair, level);
    }
    s.Prime(std::move(slots), priorities);
    ASSERT_EQ(s.live_size(), ref.size()) << "seed " << seed;
    ASSERT_EQ(s.total_pushes(), pushes) << "seed " << seed;

    for (int op = 0; op < 20000; ++op) {
      const uint64_t roll = rng() % 100;
      if (roll < 40) {
        // Push: re-push a live pair up, down or equal, or push any pair.
        uint64_t pair = random_pair();
        int level = static_cast<int>(rng() % kNumLevels);
        if (roll < 20 && !level_of.empty()) {
          auto it = level_of.lower_bound(random_pair());
          if (it == level_of.end()) it = level_of.begin();
          pair = it->first;
          level = std::clamp(it->second + static_cast<int>(rng() % 3) - 1, 0,
                             kNumLevels - 1);
        }
        s.Push(s.FindOrAdd(pair), kLevels[level]);
        schedule(pair, level);
      } else if (roll < 55) {
        const uint64_t pair = random_pair();
        const uint32_t slot = s.Find(pair);
        if (slot != ComparisonScheduler::kNoSlot) s.Erase(slot);
        const auto it = level_of.find(pair);
        if (it != level_of.end()) {
          ref.erase({kLevels[it->second], pair});
          level_of.erase(it);
        }
      } else {
        uint32_t slot;
        double priority;
        const bool popped = s.Pop(slot, priority);
        ASSERT_EQ(popped, !ref.empty()) << "seed " << seed << " op " << op;
        if (popped) {
          const auto [want_priority, want_pair] = *ref.begin();
          ASSERT_EQ(s.slot(slot).pair, want_pair)
              << "seed " << seed << " op " << op;
          ASSERT_EQ(std::bit_cast<uint64_t>(priority),
                    std::bit_cast<uint64_t>(want_priority))
              << "seed " << seed << " op " << op;
          ASSERT_FALSE(s.slot(slot).live);
          ref.erase(ref.begin());
          level_of.erase(want_pair);
        }
      }
      ASSERT_EQ(s.live_size(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(s.total_pushes(), pushes) << "seed " << seed << " op " << op;
    }
  }
}

// The run's order comes from (priority, pair) alone: priming a list already
// in pop order (the one-pass path), with a few adjacent swaps (the repair
// path), or shuffled (the full-sort path) pops the same sequence.
TEST(SchedulerTest, PrimeOrderDoesNotChangePopSequence) {
  std::mt19937_64 rng(99);
  std::vector<std::pair<double, uint64_t>> entries;
  for (uint32_t a = 0; a < 60; ++a) {
    for (uint32_t b = a + 1; b < 60; ++b) {
      entries.emplace_back(0.125 * static_cast<double>(rng() % 8),
                           PairKey(a, b));
    }
  }
  std::sort(entries.begin(), entries.end(), ScheduleOrder{});
  std::vector<std::pair<double, uint64_t>> swapped = entries;
  for (size_t i = 1; i < swapped.size(); i += 97) {
    std::swap(swapped[i - 1], swapped[i]);
  }
  std::vector<std::pair<double, uint64_t>> shuffled = entries;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  const auto drain = [](const std::vector<std::pair<double, uint64_t>>& in) {
    ComparisonScheduler s;
    std::vector<uint32_t> slots;
    std::vector<double> priorities;
    for (const auto& [priority, pair] : in) {
      slots.push_back(s.FindOrAdd(pair));
      priorities.push_back(priority);
    }
    s.Prime(std::move(slots), priorities);
    std::vector<std::pair<double, uint64_t>> out;
    uint64_t pair;
    double priority;
    while (PopPair(s, pair, priority)) out.emplace_back(priority, pair);
    return out;
  };
  const auto want = drain(entries);
  ASSERT_EQ(want, entries);
  EXPECT_EQ(drain(swapped), want);
  EXPECT_EQ(drain(shuffled), want);
}

// ---------------------------------------------------------------------------
// ResolutionState
// ---------------------------------------------------------------------------

EntityCollection StateFixture() {
  EntityCollection c;
  EXPECT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "alpha beta" .
<http://a/1> <http://a/q> "gamma" .
<http://a/2> <http://a/p> "delta" .
<http://a/1> <http://a/rel> <http://a/2> .
)")).ok());
  EXPECT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "alpha" .
<http://b/1> <http://b/q> "epsilon" .
<http://b/2> <http://b/p> "delta zeta" .
<http://b/1> <http://b/rel> <http://b/2> .
)")).ok());
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

TEST(StateTest, ClusterValuesMergeOnMatch) {
  EntityCollection c = StateFixture();
  NeighborGraph graph(c);
  ResolutionState state(c, &graph);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  const size_t before_a = state.ClusterValues(a1).size();
  const size_t before_b = state.ClusterValues(b1).size();
  EXPECT_TRUE(state.RecordMatch(a1, b1));
  // Values "alpha beta", "gamma" + "alpha", "epsilon" -> distinct union.
  const size_t after = state.ClusterValues(a1).size();
  EXPECT_GT(after, before_a);
  EXPECT_GT(after, before_b);
  EXPECT_EQ(state.ClusterValues(a1).size(), state.ClusterValues(b1).size());
  EXPECT_EQ(state.ClusterSize(a1), 2u);
}

TEST(StateTest, RepeatMatchReturnsFalse) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  EXPECT_TRUE(state.RecordMatch(0, 2));
  EXPECT_FALSE(state.RecordMatch(0, 2));
  EXPECT_EQ(state.matches_recorded(), 2u);
}

TEST(StateTest, ValueGainCountsNovelValues) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  // a/1 values: {"alpha beta", "gamma"}; b/1 values: {"alpha", "epsilon"}.
  // Disjoint lexical forms -> merged 4, larger 2 -> gain 2.
  EXPECT_EQ(state.ValueGain(a1, b1), 2u);
  state.RecordMatch(a1, b1);
  EXPECT_EQ(state.ValueGain(a1, b1), 0u);  // same cluster now
}

TEST(StateTest, MatchedNeighborTracking) {
  EntityCollection c = StateFixture();
  NeighborGraph graph(c);
  ResolutionState state(c, &graph);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId a2 = c.FindByIri("http://a/2");
  const EntityId b1 = c.FindByIri("http://b/1");
  const EntityId b2 = c.FindByIri("http://b/2");
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(a1, b1, 16), 0.0);
  state.RecordMatch(a2, b2);  // neighbors of (a1, b1) now co-clustered
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(a1, b1, 16), 1.0);
  EXPECT_EQ(state.MatchedNeighborPairs(a1, b1, 16), 1u);
}

TEST(StateTest, NullGraphMeansNoNeighborSignal) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(0, 2, 16), 0.0);
  EXPECT_EQ(state.MatchedNeighborPairs(0, 2, 16), 0u);
}

// ---------------------------------------------------------------------------
// Benefit models
// ---------------------------------------------------------------------------

TEST(BenefitTest, Names) {
  EXPECT_EQ(BenefitModelName(BenefitModel::kQuantity), "quantity");
  EXPECT_EQ(BenefitModelName(BenefitModel::kAttributeCompleteness),
            "attr-completeness");
  EXPECT_EQ(BenefitModelName(BenefitModel::kEntityCoverage),
            "entity-coverage");
  EXPECT_EQ(BenefitModelName(BenefitModel::kRelationshipCompleteness),
            "rel-completeness");
}

TEST(BenefitTest, QuantityIsConstant) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  BenefitEstimator est(BenefitModel::kQuantity);
  EXPECT_DOUBLE_EQ(est.PairBenefit(0, 2, state), 1.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(0, 2, state), 1.0);
}

TEST(BenefitTest, EntityCoverageDecaysWithClusterSize) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  BenefitEstimator est(BenefitModel::kEntityCoverage);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  const EntityId b2 = c.FindByIri("http://b/2");
  EXPECT_DOUBLE_EQ(est.PairBenefit(a1, b1, state), 1.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b1, state), 1.0);
  state.RecordMatch(a1, b1);
  // Extending the cluster adds no coverage.
  EXPECT_LT(est.PairBenefit(a1, b2, state), 1.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b2, state), 0.0);
}

TEST(BenefitTest, AttributeCompletenessPrefersNovelProfiles) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  BenefitEstimator est(BenefitModel::kAttributeCompleteness);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");  // disjoint values: gain 2
  const EntityId a2 = c.FindByIri("http://a/2");
  const EntityId b2 = c.FindByIri("http://b/2");  // disjoint values: gain 1
  EXPECT_GT(est.PairBenefit(a1, b1, state), 0.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b1, state), 2.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a2, b2, state), 1.0);
}

TEST(BenefitTest, RelationshipCompletenessRewardsMatchedNeighbors) {
  EntityCollection c = StateFixture();
  NeighborGraph graph(c);
  ResolutionState state(c, &graph);
  BenefitEstimator est(BenefitModel::kRelationshipCompleteness);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  const double before = est.PairBenefit(a1, b1, state);
  state.RecordMatch(c.FindByIri("http://a/2"), c.FindByIri("http://b/2"));
  const double after = est.PairBenefit(a1, b1, state);
  EXPECT_GT(after, before);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b1, state), 1.0);
}

// ---------------------------------------------------------------------------
// ProgressiveResolver end-to-end on generated clouds
// ---------------------------------------------------------------------------

// Heap-held components so internal cross-references survive struct moves.
struct ResolverWorld {
  std::unique_ptr<EntityCollection> collection_ptr;
  std::unique_ptr<GroundTruth> truth_ptr;
  std::unique_ptr<NeighborGraph> graph_ptr;
  std::unique_ptr<SimilarityEvaluator> evaluator_ptr;
  std::vector<WeightedComparison> candidates;

  EntityCollection& collection() const { return *collection_ptr; }
  GroundTruth& truth() const { return *truth_ptr; }
  NeighborGraph& graph() const { return *graph_ptr; }
  SimilarityEvaluator& evaluator() const { return *evaluator_ptr; }

  /// Begin + Step to exhaustion over the candidates under `opts`.
  ProgressiveResult Run(const ProgressiveOptions& opts) const {
    ProgressiveResolver resolver(collection(), graph(), evaluator(), opts);
    resolver.Begin(candidates);
    resolver.Step(0);
    return resolver.result();
  }

  static ResolverWorld Make(uint64_t seed, bool periphery_heavy) {
    datagen::LodCloudConfig cfg;
    cfg.seed = seed;
    cfg.num_real_entities = 250;
    cfg.num_kbs = 4;
    cfg.center_kbs = periphery_heavy ? 1 : 2;
    if (periphery_heavy) cfg.periphery_token_overlap = 0.2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    EXPECT_TRUE(cloud.ok());
    auto collection_result = cloud->BuildCollection();
    EXPECT_TRUE(collection_result.ok());
    auto collection = std::make_unique<EntityCollection>(
        std::move(collection_result).value());
    auto truth_result = GroundTruth::FromCloud(*cloud, *collection);
    EXPECT_TRUE(truth_result.ok());
    auto truth =
        std::make_unique<GroundTruth>(std::move(truth_result).value());
    BlockCollection blocks = TokenBlocking().Build(*collection);
    MetaBlockingOptions meta;
    meta.weighting = WeightingScheme::kEcbs;
    meta.pruning = PruningScheme::kWnp;
    auto candidates = MetaBlocking(meta).Prune(blocks, *collection);
    auto graph = std::make_unique<NeighborGraph>(*collection);
    auto evaluator = std::make_unique<SimilarityEvaluator>(*collection);
    return ResolverWorld{std::move(collection), std::move(truth),
                         std::move(graph), std::move(evaluator),
                         std::move(candidates)};
  }
};

TEST(ResolverTest, BudgetIsRespected) {
  ResolverWorld w = ResolverWorld::Make(61, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 100;
  const ProgressiveResult result = w.Run(opts);
  EXPECT_EQ(result.run.comparisons_executed, 100u);
  for (const MatchEvent& m : result.run.matches) {
    EXPECT_LE(m.comparisons_done, 100u);
  }
}

TEST(ResolverTest, UnlimitedBudgetExecutesAtLeastAllCandidates) {
  ResolverWorld w = ResolverWorld::Make(61, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  opts.enable_update_phase = false;
  const ProgressiveResult result = w.Run(opts);
  EXPECT_EQ(result.run.comparisons_executed, w.candidates.size());
}

TEST(ResolverTest, NoDuplicateComparisons) {
  ResolverWorld w = ResolverWorld::Make(67, true);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  const ProgressiveResult result = w.Run(opts);
  std::set<uint64_t> seen;
  for (const MatchEvent& m : result.run.matches) {
    EXPECT_TRUE(seen.insert(PairKey(m.a, m.b)).second)
        << "pair matched twice";
  }
}

TEST(ResolverTest, DeterministicAcrossRuns) {
  ResolverWorld w = ResolverWorld::Make(71, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 500;
  const ProgressiveResult a = w.Run(opts);
  const ProgressiveResult b = w.Run(opts);
  ASSERT_EQ(a.run.matches.size(), b.run.matches.size());
  for (size_t i = 0; i < a.run.matches.size(); ++i) {
    EXPECT_EQ(PairKey(a.run.matches[i].a, a.run.matches[i].b),
              PairKey(b.run.matches[i].a, b.run.matches[i].b));
    EXPECT_EQ(a.run.matches[i].comparisons_done,
              b.run.matches[i].comparisons_done);
  }
}

TEST(ResolverTest, UpdatePhaseDiscoversBlockingMissedMatches) {
  ResolverWorld w = ResolverWorld::Make(73, true);
  ProgressiveOptions with;
  with.enable_update_phase = true;
  with.matcher.budget = 0;
  // "Somehow similar" periphery descriptions score low on profile
  // similarity; the threshold must be calibrated to that regime.
  with.matcher.threshold = 0.3;
  ProgressiveOptions without = with;
  without.enable_update_phase = false;

  const ProgressiveResult on = w.Run(with);
  const ProgressiveResult off = w.Run(without);

  EXPECT_GT(on.discovered_pairs, 0u)
      << "update phase must surface pairs blocking missed";
  EXPECT_EQ(off.discovered_pairs, 0u);

  // Correct-match recall (not raw match count) must improve.
  auto correct = [&](const ProgressiveResult& r) {
    uint64_t n = 0;
    for (const MatchEvent& m : r.run.matches) {
      if (w.truth().Matches(m.a, m.b)) ++n;
    }
    return n;
  };
  EXPECT_GT(correct(on), correct(off));
}

TEST(ResolverTest, EvidenceAssistedMatchesAreCountedAndReal) {
  ResolverWorld w = ResolverWorld::Make(79, true);
  ProgressiveOptions opts;
  opts.enable_update_phase = true;
  opts.matcher.budget = 0;
  opts.matcher.threshold = 0.3;
  const ProgressiveResult result = w.Run(opts);
  EXPECT_GT(result.evidence_assisted_matches, 0u);
  EXPECT_LE(result.discovered_matches, result.discovered_pairs);
}

TEST(ResolverTest, BenefitTraceMonotone) {
  ResolverWorld w = ResolverWorld::Make(83, false);
  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    ProgressiveOptions opts;
    opts.benefit = static_cast<BenefitModel>(model);
    opts.matcher.budget = 400;
    const ProgressiveResult result = w.Run(opts);
    ASSERT_EQ(result.benefit_trace.size(), result.run.matches.size());
    for (size_t i = 1; i < result.benefit_trace.size(); ++i) {
      EXPECT_GE(result.benefit_trace[i], result.benefit_trace[i - 1])
          << BenefitModelName(opts.benefit);
    }
  }
}

TEST(ResolverTest, ProgressiveBeatsRandomEarly) {
  ResolverWorld w = ResolverWorld::Make(89, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  const ProgressiveResult prog = w.Run(opts);

  // Random order over the same candidate set, same budget horizon.
  std::vector<Comparison> random_order;
  for (const auto& c : w.candidates) random_order.emplace_back(c.a, c.b);
  Rng rng(1234);
  rng.Shuffle(random_order);
  MatcherOptions mopts;
  mopts.threshold = opts.matcher.threshold;
  BatchMatcher random_matcher(w.evaluator(), mopts);
  const ResolutionRun random_run = random_matcher.Run(random_order);

  const uint64_t horizon = w.candidates.size();
  const double auc_prog =
      ProgressiveRecallAuc(prog.run, w.truth(), horizon);
  const double auc_rand =
      ProgressiveRecallAuc(random_run, w.truth(), horizon);
  EXPECT_GT(auc_prog, auc_rand * 1.2)
      << "scheduling must front-load recall vs random";
}

TEST(ResolverTest, SchedulerOverheadBounded) {
  ResolverWorld w = ResolverWorld::Make(97, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  const ProgressiveResult result = w.Run(opts);
  // Heap pushes stay within a small multiple of work done (no runaway
  // re-scheduling loops).
  EXPECT_LT(result.scheduler_pushes,
            20 * (result.run.comparisons_executed + w.candidates.size()));
}

}  // namespace
}  // namespace minoan
