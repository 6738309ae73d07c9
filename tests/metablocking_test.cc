// Unit tests for meta-blocking: hand-computed edge weights on a fixture,
// behavior of all pruning schemes, reciprocal variants, and recall retention
// on generated clouds (parameterized over the full scheme grid).

#include <algorithm>
#include <cmath>
#include <set>

#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/meta_blocking.h"
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

/// Fixture with hand-checkable blocks. Entities: a0, a1 (KB a), b0, b1 (KB
/// b). Blocks: {a0,b0} x2 shared tokens, {a0,b0,b1}, {a1,b1}.
struct Fixture {
  EntityCollection collection;
  BlockCollection blocks;
  EntityId a0, a1, b0, b1;

  Fixture() {
    EXPECT_TRUE(collection.AddKnowledgeBase("a", Parse(R"(
<http://a/0> <http://a/p> "x" .
<http://a/1> <http://a/p> "y" .
)")).ok());
    EXPECT_TRUE(collection.AddKnowledgeBase("b", Parse(R"(
<http://b/0> <http://b/p> "x" .
<http://b/1> <http://b/p> "y" .
)")).ok());
    EXPECT_TRUE(collection.Finalize().ok());
    a0 = collection.FindByIri("http://a/0");
    a1 = collection.FindByIri("http://a/1");
    b0 = collection.FindByIri("http://b/0");
    b1 = collection.FindByIri("http://b/1");
    blocks.AddBlock({a0, b0});
    blocks.AddBlock({a0, b0});
    blocks.AddBlock({a0, b0, b1});
    blocks.AddBlock({a1, b1});
  }
};

// ---------------------------------------------------------------------------
// Edge weights (hand-computed)
// ---------------------------------------------------------------------------

TEST(WeightTest, CbsCountsCommonBlocks) {
  Fixture f;
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kCbs,
                        ResolutionMode::kCleanClean, f.a0, f.b0),
      3.0);
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kCbs,
                        ResolutionMode::kCleanClean, f.a0, f.b1),
      1.0);
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kCbs,
                        ResolutionMode::kCleanClean, f.a1, f.b1),
      1.0);
}

TEST(WeightTest, AbsentEdgeIsZero) {
  Fixture f;
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kCbs,
                        ResolutionMode::kCleanClean, f.a1, f.b0),
      0.0);
}

TEST(WeightTest, JsMatchesFormula) {
  Fixture f;
  // |B_a0| = 3, |B_b0| = 3, common = 3 -> JS = 3 / (3+3-3) = 1.
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kJs,
                        ResolutionMode::kCleanClean, f.a0, f.b0),
      1.0);
  // a0-b1: |B_a0|=3, |B_b1|=2, common=1 -> 1/(3+2-1) = 0.25.
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kJs,
                        ResolutionMode::kCleanClean, f.a0, f.b1),
      0.25);
}

TEST(WeightTest, EcbsMatchesFormula) {
  Fixture f;
  // |B| = 4; ECBS(a0,b0) = 3 * ln(4/3) * ln(4/3).
  const double expected = 3.0 * std::log(4.0 / 3.0) * std::log(4.0 / 3.0);
  EXPECT_NEAR(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kEcbs,
                        ResolutionMode::kCleanClean, f.a0, f.b0),
      expected, 1e-12);
}

TEST(WeightTest, ArcsMatchesFormula) {
  Fixture f;
  // Clean-clean cardinalities: k1, k2 -> 1 comparison each; k3 -> {a0,b0},
  // {a0,b1} = 2 comparisons; ARCS(a0,b0) = 1/1 + 1/1 + 1/2 = 2.5.
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kArcs,
                        ResolutionMode::kCleanClean, f.a0, f.b0),
      2.5);
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kArcs,
                        ResolutionMode::kCleanClean, f.a0, f.b1),
      0.5);
}

TEST(WeightTest, EjsDiscountsHighDegreeNodes) {
  Fixture f;
  // deg(a0) = 2 (b0, b1), deg(b0) = 1, deg(b1) = 2, deg(a1) = 1; |V| = 4.
  const double js_a0b0 = 1.0;
  const double expected =
      js_a0b0 * std::log(4.0 / 2.0) * std::log(4.0 / 1.0);
  EXPECT_NEAR(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kEjs,
                        ResolutionMode::kCleanClean, f.a0, f.b0),
      expected, 1e-12);
}

TEST(WeightTest, DirtyModeSeesSameKbEdges) {
  Fixture f;
  // In dirty mode b0-b1 co-occur in k3.
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kCbs,
                        ResolutionMode::kDirty, f.b0, f.b1),
      1.0);
  // In clean-clean mode that edge does not exist.
  EXPECT_DOUBLE_EQ(
      ComputePairWeight(f.blocks, f.collection, WeightingScheme::kCbs,
                        ResolutionMode::kCleanClean, f.b0, f.b1),
      0.0);
}

// ---------------------------------------------------------------------------
// BlockingGraphView mechanics
// ---------------------------------------------------------------------------

TEST(GraphViewTest, OnlyGreaterEnumeratesEachEdgeOnce) {
  Fixture f;
  BlockingGraphView view(f.blocks, f.collection, WeightingScheme::kCbs,
                         ResolutionMode::kCleanClean);
  NeighborScratch scratch(f.collection.num_entities());
  std::multiset<uint64_t> edges;
  for (EntityId e = 0; e < f.collection.num_entities(); ++e) {
    view.ForNeighbors(scratch, e, /*only_greater=*/true,
                      [&](EntityId n, uint32_t, double) {
                        edges.insert(PairKey(e, n));
                      });
  }
  // Distinct edges: (a0,b0), (a0,b1), (a1,b1) — each exactly once.
  EXPECT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges.count(PairKey(f.a0, f.b0)), 1u);
}

TEST(GraphViewTest, BothDirectionsWithoutOnlyGreater) {
  Fixture f;
  BlockingGraphView view(f.blocks, f.collection, WeightingScheme::kCbs,
                         ResolutionMode::kCleanClean);
  NeighborScratch scratch(f.collection.num_entities());
  uint64_t half_edges = 0;
  for (EntityId e = 0; e < f.collection.num_entities(); ++e) {
    view.ForNeighbors(scratch, e, false,
                      [&](EntityId, uint32_t, double) { ++half_edges; });
  }
  EXPECT_EQ(half_edges, 6u);  // 3 edges seen from both sides
}

TEST(GraphViewTest, TotalBlockAssignments) {
  Fixture f;
  BlockingGraphView view(f.blocks, f.collection, WeightingScheme::kCbs,
                         ResolutionMode::kCleanClean);
  EXPECT_EQ(view.total_block_assignments(), 2u + 2u + 3u + 2u);
}

// ---------------------------------------------------------------------------
// Pruning schemes on the fixture
// ---------------------------------------------------------------------------

std::set<uint64_t> RetainedPairs(const std::vector<WeightedComparison>& v) {
  std::set<uint64_t> out;
  for (const auto& c : v) out.insert(PairKey(c.a, c.b));
  return out;
}

TEST(PruningTest, WepKeepsAboveMeanEdges) {
  Fixture f;
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kCbs;
  opts.pruning = PruningScheme::kWep;
  MetaBlockingStats stats;
  const auto retained =
      MetaBlocking(opts).Prune(f.blocks, f.collection, &stats);
  // Weights: (a0,b0)=3, (a0,b1)=1, (a1,b1)=1; mean = 5/3. Only (a0,b0) >= mean.
  EXPECT_EQ(RetainedPairs(retained),
            (std::set<uint64_t>{PairKey(f.a0, f.b0)}));
  EXPECT_EQ(stats.graph_edges, 3u);
  EXPECT_NEAR(stats.mean_weight, 5.0 / 3.0, 1e-12);
}

TEST(PruningTest, CepKeepsTopKGlobal) {
  Fixture f;
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kCbs;
  opts.pruning = PruningScheme::kCep;
  const auto retained = MetaBlocking(opts).Prune(f.blocks, f.collection);
  // K = BC/2 = 9/2 = 4 >= all 3 edges: everything retained.
  EXPECT_EQ(retained.size(), 3u);
  // Sorted descending by weight.
  EXPECT_DOUBLE_EQ(retained.front().weight, 3.0);
}

TEST(PruningTest, WnpUnionSemantics) {
  Fixture f;
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kCbs;
  opts.pruning = PruningScheme::kWnp;
  opts.reciprocal = false;
  const auto retained = MetaBlocking(opts).Prune(f.blocks, f.collection);
  // Node means: a0: (3+1)/2=2 -> keeps (a0,b0). b0: 3 -> keeps (a0,b0).
  // b1: (1+1)/2=1 -> keeps both its edges. a1: 1 -> keeps (a1,b1).
  EXPECT_EQ(RetainedPairs(retained),
            (std::set<uint64_t>{PairKey(f.a0, f.b0), PairKey(f.a0, f.b1),
                                PairKey(f.a1, f.b1)}));
}

TEST(PruningTest, WnpReciprocalSemantics) {
  Fixture f;
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kCbs;
  opts.pruning = PruningScheme::kWnp;
  opts.reciprocal = true;
  const auto retained = MetaBlocking(opts).Prune(f.blocks, f.collection);
  // (a0,b1) is nominated only by b1 (a0's mean 2 > 1): dropped.
  EXPECT_EQ(RetainedPairs(retained),
            (std::set<uint64_t>{PairKey(f.a0, f.b0), PairKey(f.a1, f.b1)}));
}

TEST(PruningTest, CnpKeepsTopKPerNode) {
  Fixture f;
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kCbs;
  opts.pruning = PruningScheme::kCnp;
  opts.reciprocal = false;
  const auto retained = MetaBlocking(opts).Prune(f.blocks, f.collection);
  // BC=9, |V|=4 -> k = round(9/4) = 2: every node keeps up to 2 edges, so
  // all three edges survive under union semantics.
  EXPECT_EQ(retained.size(), 3u);
}

TEST(PruningTest, RetainedSortedDeterministically) {
  Fixture f;
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kCbs;
  opts.pruning = PruningScheme::kWnp;
  const auto a = MetaBlocking(opts).Prune(f.blocks, f.collection);
  const auto b = MetaBlocking(opts).Prune(f.blocks, f.collection);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(PairKey(a[i].a, a[i].b), PairKey(b[i].a, b[i].b));
    EXPECT_GE(i == 0 ? 1e300 : a[i - 1].weight, a[i].weight);
  }
}

// ---------------------------------------------------------------------------
// Parameterized: full weighting × pruning grid on a generated cloud.
// Invariants: retained ⊆ graph edges, counts shrink, recall mostly survives.
// ---------------------------------------------------------------------------

struct SchemeCase {
  WeightingScheme weighting;
  PruningScheme pruning;
};

std::string SchemeCaseName(
    const ::testing::TestParamInfo<SchemeCase>& info) {
  return std::string(WeightingSchemeName(info.param.weighting)) + "_" +
         std::string(PruningSchemeName(info.param.pruning));
}

class MetaBlockingGrid : public ::testing::TestWithParam<SchemeCase> {
 protected:
  static void SetUpTestSuite() {
    datagen::LodCloudConfig cfg;
    cfg.seed = 47;
    cfg.num_real_entities = 250;
    cfg.num_kbs = 4;
    cfg.center_kbs = 2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    ASSERT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    ASSERT_TRUE(collection.ok());
    collection_ = new EntityCollection(std::move(collection).value());
    auto truth = GroundTruth::FromCloud(*cloud, *collection_);
    ASSERT_TRUE(truth.ok());
    truth_ = new GroundTruth(std::move(truth).value());
    blocks_ = new BlockCollection(TokenBlocking().Build(*collection_));
    blocks_->BuildEntityIndex(collection_->num_entities());
    baseline_ = new BlockingMetrics(EvaluateBlocks(
        *blocks_, *collection_, ResolutionMode::kCleanClean, *truth_));
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete blocks_;
    delete truth_;
    delete collection_;
    baseline_ = nullptr;
    blocks_ = nullptr;
    truth_ = nullptr;
    collection_ = nullptr;
  }

  static EntityCollection* collection_;
  static GroundTruth* truth_;
  static BlockCollection* blocks_;
  static BlockingMetrics* baseline_;
};

EntityCollection* MetaBlockingGrid::collection_ = nullptr;
GroundTruth* MetaBlockingGrid::truth_ = nullptr;
BlockCollection* MetaBlockingGrid::blocks_ = nullptr;
BlockingMetrics* MetaBlockingGrid::baseline_ = nullptr;

TEST_P(MetaBlockingGrid, PrunesWithoutCollapsingRecall) {
  MetaBlockingOptions opts;
  opts.weighting = GetParam().weighting;
  opts.pruning = GetParam().pruning;
  MetaBlockingStats stats;
  const auto retained =
      MetaBlocking(opts).Prune(*blocks_, *collection_, &stats);

  // Structural invariants.
  EXPECT_GT(retained.size(), 0u);
  EXPECT_LE(retained.size(), stats.graph_edges);
  EXPECT_EQ(stats.retained_edges, retained.size());
  for (const WeightedComparison& c : retained) {
    EXPECT_NE(c.a, c.b);
    EXPECT_TRUE(collection_->CrossKb(c.a, c.b));
    EXPECT_GE(c.weight, 0.0);
  }

  // Effectiveness: no more comparisons than the raw blocks, and PC within a
  // tolerable drop of the blocking PC (the poster's "discard comparisons
  // that are less likely to match"). Cardinality schemes (CEP/CNP) bound
  // retained count by BC-derived caps, which may exceed the edge count of a
  // small test graph — their pruning is only required when the cap binds.
  const BlockingMetrics m = EvaluateWeighted(
      retained, *truth_,
      BruteForceComparisons(*collection_, ResolutionMode::kCleanClean));
  EXPECT_LE(m.comparisons, baseline_->comparisons);
  EXPECT_GT(m.pair_completeness, baseline_->pair_completeness * 0.55);
  const bool weight_based = GetParam().pruning == PruningScheme::kWep ||
                            GetParam().pruning == PruningScheme::kWnp;
  if (weight_based) {
    EXPECT_LT(m.comparisons, baseline_->comparisons);
    EXPECT_GT(m.pair_quality, baseline_->pair_quality)
        << "weight pruning must raise precision";
  } else {
    EXPECT_GE(m.pair_quality, baseline_->pair_quality);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MetaBlockingGrid,
    ::testing::Values(
        SchemeCase{WeightingScheme::kCbs, PruningScheme::kWep},
        SchemeCase{WeightingScheme::kCbs, PruningScheme::kCep},
        SchemeCase{WeightingScheme::kCbs, PruningScheme::kWnp},
        SchemeCase{WeightingScheme::kCbs, PruningScheme::kCnp},
        SchemeCase{WeightingScheme::kEcbs, PruningScheme::kWep},
        SchemeCase{WeightingScheme::kEcbs, PruningScheme::kCep},
        SchemeCase{WeightingScheme::kEcbs, PruningScheme::kWnp},
        SchemeCase{WeightingScheme::kEcbs, PruningScheme::kCnp},
        SchemeCase{WeightingScheme::kJs, PruningScheme::kWep},
        SchemeCase{WeightingScheme::kJs, PruningScheme::kCep},
        SchemeCase{WeightingScheme::kJs, PruningScheme::kWnp},
        SchemeCase{WeightingScheme::kJs, PruningScheme::kCnp},
        SchemeCase{WeightingScheme::kEjs, PruningScheme::kWep},
        SchemeCase{WeightingScheme::kEjs, PruningScheme::kCep},
        SchemeCase{WeightingScheme::kEjs, PruningScheme::kWnp},
        SchemeCase{WeightingScheme::kEjs, PruningScheme::kCnp},
        SchemeCase{WeightingScheme::kArcs, PruningScheme::kWep},
        SchemeCase{WeightingScheme::kArcs, PruningScheme::kCep},
        SchemeCase{WeightingScheme::kArcs, PruningScheme::kWnp},
        SchemeCase{WeightingScheme::kArcs, PruningScheme::kCnp}),
    SchemeCaseName);

TEST(SchemeNamesTest, AllNamed) {
  EXPECT_EQ(WeightingSchemeName(WeightingScheme::kCbs), "CBS");
  EXPECT_EQ(WeightingSchemeName(WeightingScheme::kEcbs), "ECBS");
  EXPECT_EQ(WeightingSchemeName(WeightingScheme::kJs), "JS");
  EXPECT_EQ(WeightingSchemeName(WeightingScheme::kEjs), "EJS");
  EXPECT_EQ(WeightingSchemeName(WeightingScheme::kArcs), "ARCS");
  EXPECT_EQ(PruningSchemeName(PruningScheme::kWep), "WEP");
  EXPECT_EQ(PruningSchemeName(PruningScheme::kCep), "CEP");
  EXPECT_EQ(PruningSchemeName(PruningScheme::kWnp), "WNP");
  EXPECT_EQ(PruningSchemeName(PruningScheme::kCnp), "CNP");
}

}  // namespace
}  // namespace minoan
