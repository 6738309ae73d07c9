// Tests for the extension features: B-cubed cluster metrics and warm-start
// (seeded) progressive resolution.

#include <memory>
#include <set>

#include "blocking/blocking_method.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/cluster_metrics.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "metablocking/meta_blocking.h"
#include "progressive/resolver.h"
#include "util/hash.h"

namespace minoan {
namespace {

// ---------------------------------------------------------------------------
// B-cubed cluster metrics
// ---------------------------------------------------------------------------

ResolutionRun RunOf(std::vector<std::pair<EntityId, EntityId>> pairs) {
  ResolutionRun run;
  uint64_t i = 0;
  for (const auto& [a, b] : pairs) {
    run.matches.push_back({++i, a, b, 1.0});
  }
  run.comparisons_executed = i;
  return run;
}

TEST(BCubedTest, PerfectResolutionScoresOne) {
  // Truth: {0,1,2}, {3,4}; entity 5 singleton.
  GroundTruth truth(6, {{0, 1}, {1, 2}, {3, 4}});
  const ResolutionRun run = RunOf({{0, 1}, {1, 2}, {3, 4}});
  const ClusterMetrics m = EvaluateClusters(run, truth);
  EXPECT_DOUBLE_EQ(m.bcubed_precision, 1.0);
  EXPECT_DOUBLE_EQ(m.bcubed_recall, 1.0);
  EXPECT_DOUBLE_EQ(m.bcubed_f1, 1.0);
  EXPECT_EQ(m.clusters, 2u);
  EXPECT_EQ(m.largest_cluster, 3u);
  EXPECT_EQ(m.clustered_entities, 5u);
}

TEST(BCubedTest, NothingResolved) {
  GroundTruth truth(4, {{0, 1}, {2, 3}});
  const ClusterMetrics m = EvaluateClusters(RunOf({}), truth);
  EXPECT_DOUBLE_EQ(m.bcubed_precision, 1.0);  // singletons are pure
  EXPECT_DOUBLE_EQ(m.bcubed_recall, 0.5);     // each entity finds only itself
  EXPECT_EQ(m.clusters, 0u);
}

TEST(BCubedTest, OverMergePenalizesPrecision) {
  GroundTruth truth(4, {{0, 1}, {2, 3}});
  // Everything merged into one cluster of 4.
  const ResolutionRun run = RunOf({{0, 1}, {1, 2}, {2, 3}});
  const ClusterMetrics m = EvaluateClusters(run, truth);
  EXPECT_DOUBLE_EQ(m.bcubed_recall, 1.0);
  EXPECT_DOUBLE_EQ(m.bcubed_precision, 0.5);  // 2 of 4 members correct
}

TEST(BCubedTest, PartialMergePartialScores) {
  // Truth cluster {0,1,2}; resolved only {0,1}.
  GroundTruth truth(3, {{0, 1}, {1, 2}});
  const ClusterMetrics m = EvaluateClusters(RunOf({{0, 1}}), truth);
  EXPECT_DOUBLE_EQ(m.bcubed_precision, 1.0);
  // recall: e0: 2/3, e1: 2/3, e2: 1/3 -> mean 5/9.
  EXPECT_NEAR(m.bcubed_recall, 5.0 / 9.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Warm-start seeds
// ---------------------------------------------------------------------------

struct SeedWorld {
  std::unique_ptr<datagen::LodCloud> cloud;
  std::unique_ptr<EntityCollection> collection;
  std::unique_ptr<GroundTruth> truth;
  std::unique_ptr<NeighborGraph> graph;
  std::unique_ptr<SimilarityEvaluator> evaluator;
  std::vector<WeightedComparison> candidates;
};

/// Begin + Step to exhaustion; returns the run's result.
ProgressiveResult RunToEnd(ProgressiveResolver& resolver,
                           const std::vector<WeightedComparison>& candidates,
                           const std::vector<Comparison>& seeds = {}) {
  resolver.Begin(candidates, seeds);
  resolver.Step(0);
  return resolver.result();
}

SeedWorld MakeSeedWorld() {
  datagen::LodCloudConfig cfg;
  cfg.seed = 503;
  cfg.num_real_entities = 300;
  cfg.num_kbs = 4;
  cfg.center_kbs = 1;
  cfg.periphery_token_overlap = 0.25;
  cfg.same_as_rate = 0.3;  // plenty of existing interlinks
  auto cloud_result = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud_result.ok());
  auto cloud = std::make_unique<datagen::LodCloud>(
      std::move(cloud_result).value());
  auto collection_result = cloud->BuildCollection();
  EXPECT_TRUE(collection_result.ok());
  auto collection = std::make_unique<EntityCollection>(
      std::move(collection_result).value());
  auto truth_result = GroundTruth::FromCloud(*cloud, *collection);
  EXPECT_TRUE(truth_result.ok());
  auto truth =
      std::make_unique<GroundTruth>(std::move(truth_result).value());
  BlockCollection blocks = TokenBlocking().Build(*collection);
  auto candidates = MetaBlocking().Prune(blocks, *collection);
  auto graph = std::make_unique<NeighborGraph>(*collection);
  auto evaluator = std::make_unique<SimilarityEvaluator>(*collection);
  return SeedWorld{std::move(cloud),    std::move(collection),
                   std::move(truth),    std::move(graph),
                   std::move(evaluator), std::move(candidates)};
}

TEST(SeededResolveTest, SeedsNotReportedAsMatches) {
  SeedWorld w = MakeSeedWorld();
  ASSERT_GT(w.collection->same_as_links().size(), 0u);
  std::vector<Comparison> seeds;
  for (const SameAsLink& link : w.collection->same_as_links()) {
    seeds.emplace_back(link.a, link.b);
  }
  ProgressiveOptions opts;
  opts.matcher.threshold = 0.3;
  ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator, opts);
  const ProgressiveResult result = RunToEnd(resolver, w.candidates, seeds);
  std::set<uint64_t> seed_keys;
  for (const Comparison& s : seeds) seed_keys.insert(PairKey(s.a, s.b));
  for (const MatchEvent& m : result.run.matches) {
    EXPECT_FALSE(seed_keys.count(PairKey(m.a, m.b)))
        << "seed leaked into discovered matches";
  }
}

TEST(SeededResolveTest, SeedsImproveRecallOfRemainingPairs) {
  SeedWorld w = MakeSeedWorld();
  std::vector<Comparison> seeds;
  for (const SameAsLink& link : w.collection->same_as_links()) {
    seeds.emplace_back(link.a, link.b);
  }
  ProgressiveOptions opts;
  opts.matcher.threshold = 0.3;
  opts.evidence.weight = 0.4;
  ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator, opts);
  const ProgressiveResult cold = RunToEnd(resolver, w.candidates);
  const ProgressiveResult warm = RunToEnd(resolver, w.candidates, seeds);

  // Score both runs only on the non-seeded truth pairs.
  std::set<uint64_t> seed_keys;
  for (const Comparison& s : seeds) seed_keys.insert(PairKey(s.a, s.b));
  auto unseeded_correct = [&](const ResolutionRun& run) {
    uint64_t n = 0;
    std::set<uint64_t> seen;
    for (const MatchEvent& m : run.matches) {
      const uint64_t key = PairKey(m.a, m.b);
      if (seed_keys.count(key)) continue;
      if (w.truth->Matches(m.a, m.b) && seen.insert(key).second) ++n;
    }
    return n;
  };
  EXPECT_GE(unseeded_correct(warm.run), unseeded_correct(cold.run));
  EXPECT_GT(warm.discovered_pairs, 0u);
}

TEST(SeededResolveTest, PipelineFlagUsesSameAsLinks) {
  SeedWorld w = MakeSeedWorld();
  WorkflowOptions with;
  with.use_same_as_seeds = true;
  with.progressive.matcher.threshold = 0.3;
  WorkflowOptions without = with;
  without.use_same_as_seeds = false;
  auto s_with = ResolutionSession::Open(*w.collection, with);
  auto s_without = ResolutionSession::Open(*w.collection, without);
  ASSERT_TRUE(s_with.ok());
  ASSERT_TRUE(s_without.ok());
  s_with->Step(0);
  s_without->Step(0);
  // With seeds, the update phase fires before matching: discovered pairs
  // must appear even at comparison 0.
  EXPECT_GT(s_with->Report().progressive.discovered_pairs, 0u);
}

TEST(SeededResolveTest, BeginDropsThePreviousRunsSeeds) {
  SeedWorld w = MakeSeedWorld();
  std::vector<Comparison> seeds;
  for (const SameAsLink& link : w.collection->same_as_links()) {
    seeds.emplace_back(link.a, link.b);
  }
  ASSERT_FALSE(seeds.empty());
  ProgressiveOptions opts;
  opts.matcher.budget = 200;
  ProgressiveResolver fresh(*w.collection, *w.graph, *w.evaluator, opts);
  const ProgressiveResult a = RunToEnd(fresh, w.candidates);
  // A seeded run first: the unseeded run after it must not see its seeds.
  ProgressiveResolver reused(*w.collection, *w.graph, *w.evaluator, opts);
  RunToEnd(reused, w.candidates, seeds);
  const ProgressiveResult b = RunToEnd(reused, w.candidates);
  EXPECT_EQ(a.run.comparisons_executed, b.run.comparisons_executed);
  ASSERT_EQ(a.run.matches.size(), b.run.matches.size());
  for (size_t i = 0; i < a.run.matches.size(); ++i) {
    EXPECT_EQ(PairKey(a.run.matches[i].a, a.run.matches[i].b),
              PairKey(b.run.matches[i].a, b.run.matches[i].b));
  }
}

// ---------------------------------------------------------------------------
// Cluster metrics on a real pipeline run
// ---------------------------------------------------------------------------

TEST(BCubedTest, PipelineRunScoresReasonably) {
  SeedWorld w = MakeSeedWorld();
  WorkflowOptions opts;
  opts.progressive.matcher.threshold = 0.35;
  auto session = ResolutionSession::Open(*w.collection, opts);
  ASSERT_TRUE(session.ok());
  session->Step(0);
  const ClusterMetrics m =
      EvaluateClusters(session->Report().progressive.run, *w.truth);
  EXPECT_GT(m.bcubed_precision, 0.9);
  EXPECT_GT(m.bcubed_recall, 0.3);
  EXPECT_GT(m.clusters, 0u);
  EXPECT_LE(m.bcubed_f1, 1.0);
}

}  // namespace
}  // namespace minoan
