// Integration tests: the full MinoanER pipeline (Figure 1) over generated
// LOD clouds, exercising blocking -> cleaning -> meta-blocking ->
// progressive resolution end to end, plus file-based ingestion. Each test
// drives a ResolutionSession directly; Step(0) runs the whole budget.

#include <filesystem>

#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "gtest/gtest.h"
#include "scratch_dir.h"
#include "rdf/ntriples.h"

namespace minoan {
namespace {

datagen::LodCloudConfig MediumConfig(uint64_t seed) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 400;
  cfg.num_kbs = 5;
  cfg.center_kbs = 2;
  return cfg;
}

struct World {
  std::unique_ptr<EntityCollection> collection;
  std::unique_ptr<GroundTruth> truth;

  static World Make(const datagen::LodCloudConfig& cfg) {
    auto cloud = datagen::GenerateLodCloud(cfg);
    EXPECT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    EXPECT_TRUE(collection.ok());
    auto col = std::make_unique<EntityCollection>(
        std::move(collection).value());
    auto truth = GroundTruth::FromCloud(*cloud, *col);
    EXPECT_TRUE(truth.ok());
    return World{std::move(col), std::make_unique<GroundTruth>(
                                     std::move(truth).value())};
  }
};

TEST(PipelineTest, RunsEndToEndWithDefaults) {
  World w = World::Make(MediumConfig(201));
  auto session = ResolutionSession::Open(*w.collection, WorkflowOptions{});
  ASSERT_TRUE(session.ok()) << session.status();
  session->Step(0);
  const ResolutionReport report = session->Report();
  EXPECT_GT(report.blocks_built, 0u);
  EXPECT_GT(report.blocks_after_cleaning, 0u);
  EXPECT_GT(report.comparisons_after_meta, 0u);
  EXPECT_GT(report.progressive.run.matches.size(), 0u);
  EXPECT_FALSE(report.Summary().empty());
  EXPECT_EQ(report.phases.size(), 5u);
}

TEST(PipelineTest, RejectsUnfinalizedCollection) {
  EntityCollection unfinalized;
  auto session = ResolutionSession::Open(unfinalized, WorkflowOptions{});
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, AchievesGoodQualityOnCenterHeavyCloud) {
  datagen::LodCloudConfig cfg = MediumConfig(203);
  cfg.center_kbs = 4;
  World w = World::Make(cfg);
  WorkflowOptions opts;
  opts.progressive.matcher.threshold = 0.4;
  auto session = ResolutionSession::Open(*w.collection, opts);
  ASSERT_TRUE(session.ok());
  session->Step(0);
  const MatchingMetrics m = EvaluateMatches(session->matches(), *w.truth);
  EXPECT_GT(m.recall, 0.6) << "highly similar data should mostly resolve";
  EXPECT_GT(m.precision, 0.8);
}

TEST(PipelineTest, UpdatePhaseLiftsPeripheryRecall) {
  datagen::LodCloudConfig cfg = MediumConfig(207);
  cfg.center_kbs = 1;
  cfg.periphery_token_overlap = 0.2;
  World w = World::Make(cfg);

  WorkflowOptions on;
  on.progressive.matcher.threshold = 0.3;
  on.progressive.enable_update_phase = true;
  WorkflowOptions off = on;
  off.progressive.enable_update_phase = false;

  auto s_on = ResolutionSession::Open(*w.collection, on);
  auto s_off = ResolutionSession::Open(*w.collection, off);
  ASSERT_TRUE(s_on.ok());
  ASSERT_TRUE(s_off.ok());
  s_on->Step(0);
  s_off->Step(0);
  const MatchingMetrics m_on = EvaluateMatches(s_on->matches(), *w.truth);
  const MatchingMetrics m_off = EvaluateMatches(s_off->matches(), *w.truth);
  EXPECT_GT(m_on.recall, m_off.recall)
      << "neighbor evidence must recover blocking-missed matches";
  EXPECT_GT(s_on->Report().progressive.discovered_pairs, 0u);
}

TEST(PipelineTest, BudgetLimitsWork) {
  World w = World::Make(MediumConfig(211));
  WorkflowOptions opts;
  opts.progressive.matcher.budget = 50;
  auto session = ResolutionSession::Open(*w.collection, opts);
  ASSERT_TRUE(session.ok());
  session->Step(0);
  EXPECT_EQ(session->comparisons_spent(), 50u);
}

TEST(PipelineTest, MetaBlockingReducesComparisons) {
  World w = World::Make(MediumConfig(213));
  WorkflowOptions with;
  WorkflowOptions without;
  without.enable_meta_blocking = false;
  auto s_with = ResolutionSession::Open(*w.collection, with);
  auto s_without = ResolutionSession::Open(*w.collection, without);
  ASSERT_TRUE(s_with.ok());
  ASSERT_TRUE(s_without.ok());
  EXPECT_LT(s_with->Report().comparisons_after_meta,
            s_without->Report().comparisons_after_meta);
}

TEST(PipelineTest, DeterministicReports) {
  World w = World::Make(MediumConfig(217));
  auto a = ResolutionSession::Open(*w.collection, WorkflowOptions{});
  auto b = ResolutionSession::Open(*w.collection, WorkflowOptions{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  a->Step(0);
  b->Step(0);
  EXPECT_EQ(a->Report().blocks_built, b->Report().blocks_built);
  EXPECT_EQ(a->Report().comparisons_after_meta,
            b->Report().comparisons_after_meta);
  ASSERT_EQ(a->matches().size(), b->matches().size());
}

TEST(PipelineTest, AllBlockerChoicesRun) {
  World w = World::Make(MediumConfig(219));
  for (BlockerChoice choice :
       {BlockerChoice::kToken, BlockerChoice::kPis,
        BlockerChoice::kAttributeClustering, BlockerChoice::kTokenPlusPis}) {
    WorkflowOptions opts;
    opts.blocker = choice;
    auto session = ResolutionSession::Open(*w.collection, opts);
    ASSERT_TRUE(session.ok()) << BlockerChoiceName(choice);
    session->Step(0);
    EXPECT_GT(session->Report().blocks_built, 0u) << BlockerChoiceName(choice);
  }
}

TEST(PipelineTest, FileBasedRoundTrip) {
  // Generate -> write N-Triples -> re-ingest from disk -> resolve.
  const testutil::ScratchDir scratch("integration-pipeline");
  const std::string dir = scratch.str() + "/pipeline_cloud";
  auto cloud = datagen::GenerateLodCloud(MediumConfig(223));
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(cloud->WriteTo(dir).ok());

  rdf::NTriplesParser parser;
  EntityCollection collection;
  for (const auto& kb : cloud->kbs) {
    auto triples = parser.ParseFile(dir + "/" + kb.name + ".nt");
    ASSERT_TRUE(triples.ok());
    ASSERT_TRUE(collection.AddKnowledgeBase(kb.name, *triples).ok());
  }
  ASSERT_TRUE(collection.Finalize().ok());
  auto truth = GroundTruth::FromTsv(dir + "/ground_truth.tsv", collection);
  ASSERT_TRUE(truth.ok());

  auto session = ResolutionSession::Open(collection, WorkflowOptions{});
  ASSERT_TRUE(session.ok());
  session->Step(0);
  const MatchingMetrics m = EvaluateMatches(session->matches(), *truth);
  EXPECT_GT(m.recall, 0.3);
  EXPECT_GT(m.precision, 0.6);
}

TEST(PipelineTest, BenefitModelsAllProduceProgress) {
  World w = World::Make(MediumConfig(227));
  NeighborGraph graph(*w.collection);
  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    WorkflowOptions opts;
    opts.progressive.benefit = static_cast<BenefitModel>(model);
    opts.progressive.matcher.budget = 2000;
    auto session = ResolutionSession::Open(*w.collection, opts);
    ASSERT_TRUE(session.ok());
    session->Step(0);
    const QualityAspects q = EvaluateQualityAspects(
        session->Report().progressive.run, *w.truth, *w.collection, graph);
    EXPECT_GT(q.entity_coverage, 0.0)
        << BenefitModelName(opts.progressive.benefit);
  }
}

}  // namespace
}  // namespace minoan
