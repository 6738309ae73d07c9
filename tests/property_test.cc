// Property-style parameterized suites: invariants that must hold across
// seeds, benefit models, scheme combinations, and budgets.

#include <set>

#include "baseline/schedulers.h"
#include "blocking/block_cleaning.h"
#include "blocking/blocking_method.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "gtest/gtest.h"
#include "metablocking/meta_blocking.h"
#include "util/hash.h"

namespace minoan {
namespace {

// ---------------------------------------------------------------------------
// Seed sweep: generator structural invariants hold for arbitrary seeds.
// ---------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, GeneratorInvariants) {
  datagen::LodCloudConfig cfg;
  cfg.seed = GetParam();
  cfg.num_real_entities = 200;
  cfg.num_kbs = 4;
  cfg.center_kbs = 1;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());

  // Every entity belongs to exactly one KB range.
  uint64_t covered = 0;
  for (uint32_t k = 0; k < collection->num_kbs(); ++k) {
    covered += collection->kb(k).num_entities();
  }
  EXPECT_EQ(covered, collection->num_entities());

  // Truth resolves, is cross-KB, and matches the cluster map.
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  ASSERT_TRUE(truth.ok());
  EXPECT_GT(truth->num_pairs(), 0u);

  // Tokens are sorted/unique; relations point to valid same-KB entities.
  for (const EntityDescription& e : collection->entities()) {
    EXPECT_TRUE(std::is_sorted(e.tokens.begin(), e.tokens.end()));
    for (const Relation& r : e.relations) {
      ASSERT_LT(r.target, collection->num_entities());
      EXPECT_EQ(collection->entity(r.target).kb, e.kb);
    }
  }
}

TEST_P(SeedSweep, BlockingInvariants) {
  datagen::LodCloudConfig cfg;
  cfg.seed = GetParam();
  cfg.num_real_entities = 200;
  cfg.num_kbs = 4;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());

  BlockCollection blocks = TokenBlocking().Build(*collection);
  // Every block: >= 2 sorted unique entities; aggregate >= distinct.
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    const auto b = blocks.entities(bi);
    EXPECT_GE(b.size(), 2u);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    EXPECT_EQ(std::adjacent_find(b.begin(), b.end()), b.end());
  }
  const uint64_t aggregate =
      blocks.AggregateComparisons(*collection, ResolutionMode::kCleanClean);
  const auto distinct =
      blocks.DistinctComparisons(*collection, ResolutionMode::kCleanClean);
  EXPECT_GE(aggregate, distinct.size());

  // Cleaning can only shrink comparisons and never empties the block set.
  BlockCollection cleaned = blocks;
  AutoPurge(cleaned, *collection, ResolutionMode::kCleanClean);
  FilterBlocks(cleaned, 0.8, *collection);
  EXPECT_LE(
      cleaned.AggregateComparisons(*collection, ResolutionMode::kCleanClean),
      aggregate);
  EXPECT_GT(cleaned.num_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---------------------------------------------------------------------------
// Budget monotonicity: recall and quality aspects never decrease with more
// budget, for every benefit model.
// ---------------------------------------------------------------------------

struct BudgetCase {
  BenefitModel model;
  uint64_t seed;
};

std::string BudgetCaseName(const ::testing::TestParamInfo<BudgetCase>& info) {
  std::string name(BenefitModelName(info.param.model));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_s" + std::to_string(info.param.seed);
}

class BudgetMonotonicity : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(BudgetMonotonicity, MoreBudgetNeverHurts) {
  datagen::LodCloudConfig cfg;
  cfg.seed = GetParam().seed;
  cfg.num_real_entities = 250;
  cfg.num_kbs = 4;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  ASSERT_TRUE(truth.ok());
  NeighborGraph graph(*collection);

  WorkflowOptions opts;
  opts.progressive.benefit = GetParam().model;
  opts.progressive.matcher.budget = 0;  // run to completion once
  auto session = ResolutionSession::Open(*collection, opts);
  ASSERT_TRUE(session.ok());
  session->Step(0);
  const ResolutionRun full = session->Report().progressive.run;

  double prev_recall = -1.0;
  double prev_coverage = -1.0;
  for (uint64_t budget :
       {full.comparisons_executed / 10, full.comparisons_executed / 3,
        full.comparisons_executed}) {
    const ResolutionRun cut = TruncateRun(full, budget);
    const MatchingMetrics m = EvaluateMatches(cut.matches, *truth);
    const QualityAspects q =
        EvaluateQualityAspects(cut, *truth, *collection, graph);
    EXPECT_GE(m.recall, prev_recall);
    EXPECT_GE(q.entity_coverage, prev_coverage);
    EXPECT_GE(q.attribute_completeness, 0.0);
    EXPECT_LE(q.attribute_completeness, 1.0);
    EXPECT_LE(q.entity_coverage, 1.0);
    EXPECT_LE(q.relationship_completeness, 1.0);
    prev_recall = m.recall;
    prev_coverage = q.entity_coverage;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, BudgetMonotonicity,
    ::testing::Values(
        BudgetCase{BenefitModel::kQuantity, 301},
        BudgetCase{BenefitModel::kQuantity, 302},
        BudgetCase{BenefitModel::kAttributeCompleteness, 301},
        BudgetCase{BenefitModel::kAttributeCompleteness, 302},
        BudgetCase{BenefitModel::kEntityCoverage, 301},
        BudgetCase{BenefitModel::kEntityCoverage, 302},
        BudgetCase{BenefitModel::kRelationshipCompleteness, 301},
        BudgetCase{BenefitModel::kRelationshipCompleteness, 302}),
    BudgetCaseName);

// ---------------------------------------------------------------------------
// Scheduler dominance: every progressive scheduler beats random ordering on
// AUC over the same candidates.
// ---------------------------------------------------------------------------

class SchedulerDominance : public ::testing::TestWithParam<BenefitModel> {};

TEST_P(SchedulerDominance, BeatsRandomAuc) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 401;
  cfg.num_real_entities = 300;
  cfg.num_kbs = 4;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  ASSERT_TRUE(truth.ok());

  BlockCollection blocks = TokenBlocking().Build(*collection);
  MetaBlockingOptions meta;
  auto candidates = MetaBlocking(meta).Prune(blocks, *collection);
  NeighborGraph graph(*collection);
  SimilarityEvaluator evaluator(*collection);

  ProgressiveOptions opts;
  opts.benefit = GetParam();
  ProgressiveResolver resolver(*collection, graph, evaluator, opts);
  resolver.Begin(candidates);
  resolver.Step(0);
  const ProgressiveResult& prog = resolver.result();

  MatcherOptions mopts;
  BatchMatcher random_matcher(evaluator, mopts);
  const ResolutionRun rnd =
      random_matcher.Run(baseline::RandomOrder(candidates, 999));

  const uint64_t horizon = candidates.size();
  EXPECT_GT(ProgressiveRecallAuc(prog.run, *truth, horizon),
            ProgressiveRecallAuc(rnd, *truth, horizon))
      << BenefitModelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, SchedulerDominance,
    ::testing::Values(BenefitModel::kQuantity,
                      BenefitModel::kAttributeCompleteness,
                      BenefitModel::kEntityCoverage,
                      BenefitModel::kRelationshipCompleteness),
    [](const auto& info) {
      std::string name(BenefitModelName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Each benefit model wins (or ties) its own quality metric at small budget.
// The poster's central claim: quality-aspect scheduling front-loads the
// targeted aspect relative to the quantity baseline.
// ---------------------------------------------------------------------------

TEST(BenefitSpecialization, ModelsImproveTheirOwnMetricOverRandom) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 403;
  cfg.num_real_entities = 300;
  cfg.num_kbs = 5;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  ASSERT_TRUE(truth.ok());
  BlockCollection blocks = TokenBlocking().Build(*collection);
  auto candidates = MetaBlocking().Prune(blocks, *collection);
  NeighborGraph graph(*collection);
  SimilarityEvaluator evaluator(*collection);

  const uint64_t budget = candidates.size() / 5;  // small budget regime
  auto run_model = [&](BenefitModel model) {
    ProgressiveOptions opts;
    opts.benefit = model;
    opts.matcher.budget = budget;
    ProgressiveResolver resolver(*collection, graph, evaluator, opts);
    resolver.Begin(candidates);
    resolver.Step(0);
    return resolver.result();
  };

  MatcherOptions mopts;
  mopts.budget = budget;
  BatchMatcher random_matcher(evaluator, mopts);
  const ResolutionRun rnd =
      random_matcher.Run(baseline::RandomOrder(candidates, 555));
  const QualityAspects q_rnd =
      EvaluateQualityAspects(rnd, *truth, *collection, graph);

  const QualityAspects q_attr = EvaluateQualityAspects(
      run_model(BenefitModel::kAttributeCompleteness).run, *truth,
      *collection, graph);
  const QualityAspects q_cov = EvaluateQualityAspects(
      run_model(BenefitModel::kEntityCoverage).run, *truth, *collection,
      graph);
  const QualityAspects q_rel = EvaluateQualityAspects(
      run_model(BenefitModel::kRelationshipCompleteness).run, *truth,
      *collection, graph);

  EXPECT_GT(q_attr.attribute_completeness, q_rnd.attribute_completeness);
  EXPECT_GT(q_cov.entity_coverage, q_rnd.entity_coverage);
  EXPECT_GT(q_rel.relationship_completeness, q_rnd.relationship_completeness);
}

}  // namespace
}  // namespace minoan
