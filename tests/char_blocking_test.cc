// Tests for character-level blocking (q-gram, sorted neighborhood), the
// generator's typo knob, and the wall-clock budget.

#include <algorithm>
#include <memory>

#include "blocking/char_blocking.h"
#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "metablocking/meta_blocking.h"
#include "progressive/resolver.h"
#include "rdf/ntriples.h"

namespace minoan {
namespace {

std::vector<rdf::Triple> Parse(const std::string& doc) {
  rdf::NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

/// True when entities `x` and `y` share at least one block.
bool ShareABlock(const BlockCollection& blocks, EntityId x, EntityId y) {
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    const auto b = blocks.entities(bi);
    if (std::binary_search(b.begin(), b.end(), x) &&
        std::binary_search(b.begin(), b.end(), y)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// QGramBlocking
// ---------------------------------------------------------------------------

TEST(QGramBlockingTest, TypoedTokensStillShareBlocks) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "heraklion" .
<http://a/2> <http://a/p> "unrelated" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "heraklio" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  // Exact-token blocking misses the typo pair entirely.
  BlockCollection token_blocks = TokenBlocking().Build(c);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  EXPECT_FALSE(ShareABlock(token_blocks, a1, b1));
  // Q-gram blocking catches it through shared trigrams.
  QGramBlocking::Options opts;
  opts.max_df_fraction = 1.0;
  BlockCollection gram_blocks = QGramBlocking(opts).Build(c);
  EXPECT_TRUE(ShareABlock(gram_blocks, a1, b1));
}

TEST(QGramBlockingTest, ShortTokensUsedWhole) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "ab xy" .
<http://a/2> <http://a/p> "ab qq" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  QGramBlocking::Options opts;
  opts.max_df_fraction = 1.0;
  BlockCollection blocks = QGramBlocking(opts).Build(c);
  // "ab" is shorter than q = 3 and the only value the two share: without
  // the whole-token rule it would yield no gram, and no block.
  ASSERT_EQ(blocks.num_blocks(), 1u);
  const auto ab = blocks.entities(0);
  EXPECT_EQ(std::vector<EntityId>(ab.begin(), ab.end()),
            (std::vector<EntityId>{0, 1}));
}

TEST(QGramBlockingTest, GramCapLimitsKeys) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "alongertokenwithmanygrams anotherlongtoken" .
<http://a/2> <http://a/p> "alongertokenwithmanygrams anotherlongtoken" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  QGramBlocking::Options tight;
  tight.max_df_fraction = 1.0;
  tight.max_grams_per_entity = 4;
  QGramBlocking::Options loose;
  loose.max_df_fraction = 1.0;
  loose.max_grams_per_entity = 0;
  EXPECT_LE(QGramBlocking(tight).Build(c).num_blocks(),
            QGramBlocking(loose).Build(c).num_blocks());
}

TEST(QGramBlockingTest, DeterministicBlockOrder) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 601;
  cfg.num_real_entities = 150;
  cfg.num_kbs = 3;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  const BlockCollection a = QGramBlocking().Build(*c);
  const BlockCollection b = QGramBlocking().Build(*c);
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (uint32_t i = 0; i < a.num_blocks(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.entities(i), b.entities(i)))
        << "block " << i;
  }
}

// ---------------------------------------------------------------------------
// SortedNeighborhoodBlocking
// ---------------------------------------------------------------------------

TEST(SortedNeighborhoodTest, AdjacentKeysShareWindows) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "knossos" .
<http://a/2> <http://a/p> "knossoz" .
<http://a/3> <http://a/p> "zzzzdistant" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  SortedNeighborhoodBlocking blocking;
  BlockCollection blocks = blocking.Build(c);
  const EntityId e1 = c.FindByIri("http://a/1");
  const EntityId e2 = c.FindByIri("http://a/2");
  EXPECT_TRUE(ShareABlock(blocks, e1, e2))
      << "near-identical keys sort adjacently";
}

TEST(SortedNeighborhoodTest, WindowBoundsBlockSize) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 607;
  cfg.num_real_entities = 200;
  cfg.num_kbs = 3;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  SortedNeighborhoodBlocking::Options opts;
  opts.window_size = 6;
  BlockCollection blocks = SortedNeighborhoodBlocking(opts).Build(*c);
  EXPECT_GT(blocks.num_blocks(), 0u);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    EXPECT_LE(blocks.block_size(bi), 6u);
  }
}

// ---------------------------------------------------------------------------
// Generator typo knob
// ---------------------------------------------------------------------------

TEST(TypoTest, TypoRateValidated) {
  datagen::LodCloudConfig cfg;
  cfg.typo_rate = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(TypoTest, TyposDegradeTokenBlockingButNotQGram) {
  datagen::LodCloudConfig clean_cfg;
  clean_cfg.seed = 611;
  clean_cfg.num_real_entities = 300;
  clean_cfg.num_kbs = 3;
  clean_cfg.center_kbs = 3;
  datagen::LodCloudConfig noisy_cfg = clean_cfg;
  noisy_cfg.typo_rate = 0.4;

  auto eval_pc = [](const datagen::LodCloudConfig& cfg,
                    const BlockingMethod& method) {
    auto cloud = datagen::GenerateLodCloud(cfg);
    EXPECT_TRUE(cloud.ok());
    auto c = cloud->BuildCollection();
    EXPECT_TRUE(c.ok());
    auto truth = GroundTruth::FromCloud(*cloud, *c);
    EXPECT_TRUE(truth.ok());
    return EvaluateBlocks(method.Build(*c), *c, ResolutionMode::kCleanClean,
                          *truth)
        .pair_completeness;
  };
  TokenBlocking token;
  const double token_clean = eval_pc(clean_cfg, token);
  const double token_noisy = eval_pc(noisy_cfg, token);
  EXPECT_LT(token_noisy, token_clean)
      << "typos must break exact token keys";

  QGramBlocking::Options gopts;
  gopts.max_df_fraction = 0.2;
  QGramBlocking qgram(gopts);
  const double qgram_noisy = eval_pc(noisy_cfg, qgram);
  EXPECT_GT(qgram_noisy, token_noisy)
      << "q-grams must be more typo-robust than exact tokens";
}

TEST(TypoTest, CorruptionPreservesDeterminism) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 613;
  cfg.num_real_entities = 100;
  cfg.num_kbs = 2;
  cfg.typo_rate = 0.5;
  auto a = datagen::GenerateLodCloud(cfg);
  auto b = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_triples(), b->total_triples());
  ASSERT_EQ(a->kbs[0].triples.size(), b->kbs[0].triples.size());
  for (size_t i = 0; i < a->kbs[0].triples.size(); i += 13) {
    EXPECT_EQ(a->kbs[0].triples[i], b->kbs[0].triples[i]);
  }
}

// ---------------------------------------------------------------------------
// Wall-clock budget
// ---------------------------------------------------------------------------

TEST(TimeBudgetTest, ZeroMillisMeansUnlimited) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 617;
  cfg.num_real_entities = 150;
  cfg.num_kbs = 3;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  BlockCollection blocks = TokenBlocking().Build(*c);
  auto candidates = MetaBlocking().Prune(blocks, *c);
  NeighborGraph graph(*c);
  SimilarityEvaluator evaluator(*c);
  ProgressiveOptions opts;
  opts.budget_millis = 0;
  opts.enable_update_phase = false;
  ProgressiveResolver resolver(*c, graph, evaluator, opts);
  resolver.Begin(candidates);
  resolver.Step(0);
  EXPECT_EQ(resolver.result().run.comparisons_executed, candidates.size());
}

}  // namespace
}  // namespace minoan
