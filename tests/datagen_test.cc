// Unit tests for the synthetic LOD-cloud generator: configuration
// validation, determinism, structural properties (center vs periphery), and
// file round-trips.

#include <filesystem>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "datagen/corpus.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "gtest/gtest.h"
#include "scratch_dir.h"
#include "kb/stats.h"
#include "rdf/ntriples.h"
#include "text/similarity.h"

namespace minoan {
namespace datagen {
namespace {

LodCloudConfig SmallConfig(uint64_t seed = 7) {
  LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 300;
  cfg.num_kbs = 5;
  cfg.center_kbs = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

TEST(CorpusTest, PseudoWordsPronounceableAndSized) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const std::string w = MakePseudoWord(rng, 2);
    EXPECT_GE(w.size(), 4u);
    for (char c : w) {
      EXPECT_TRUE(c >= 'a' && c <= 'z');
    }
  }
}

TEST(CorpusTest, WordPoolDistinct) {
  Rng rng(5);
  WordPool pool(rng, 500, 2, 3);
  EXPECT_EQ(pool.size(), 500u);
  std::set<std::string> seen;
  for (uint32_t i = 0; i < pool.size(); ++i) seen.insert(pool.word(i));
  EXPECT_EQ(seen.size(), 500u);
}

TEST(CorpusTest, EntityTypeNamesAndIris) {
  EXPECT_STREQ(EntityTypeName(EntityType::kPerson), "person");
  EXPECT_STREQ(EntityTypeName(EntityType::kEvent), "event");
  EXPECT_NE(EntityTypeClassIri(EntityType::kPlace)
                .find("schema.minoan.org/class/place"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(ConfigTest, DefaultIsValid) {
  EXPECT_TRUE(LodCloudConfig{}.Validate().ok());
}

TEST(ConfigTest, RejectsZeroEntities) {
  LodCloudConfig cfg;
  cfg.num_real_entities = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, RejectsCenterExceedingKbs) {
  LodCloudConfig cfg;
  cfg.num_kbs = 2;
  cfg.center_kbs = 3;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, RejectsOutOfRangeFractions) {
  LodCloudConfig cfg;
  cfg.center_token_overlap = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = LodCloudConfig{};
  cfg.same_as_rate = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = LodCloudConfig{};
  cfg.periphery_coverage = 2.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, RejectsBadFactTokenRange) {
  LodCloudConfig cfg;
  cfg.min_fact_tokens = 9;
  cfg.max_fact_tokens = 3;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, GenerateRejectsInvalid) {
  LodCloudConfig cfg;
  cfg.num_kbs = 0;
  EXPECT_FALSE(GenerateLodCloud(cfg).ok());
}

// ---------------------------------------------------------------------------
// Generation structure
// ---------------------------------------------------------------------------

TEST(GeneratorTest, DeterministicForSeed) {
  auto a = GenerateLodCloud(SmallConfig(11));
  auto b = GenerateLodCloud(SmallConfig(11));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->kbs.size(), b->kbs.size());
  EXPECT_EQ(a->total_triples(), b->total_triples());
  EXPECT_EQ(a->truth.size(), b->truth.size());
  for (size_t k = 0; k < a->kbs.size(); ++k) {
    ASSERT_EQ(a->kbs[k].triples.size(), b->kbs[k].triples.size());
    for (size_t i = 0; i < a->kbs[k].triples.size(); i += 97) {
      EXPECT_EQ(a->kbs[k].triples[i], b->kbs[k].triples[i]);
    }
  }
}

TEST(GeneratorTest, SeedsChangeOutput) {
  auto a = GenerateLodCloud(SmallConfig(1));
  auto b = GenerateLodCloud(SmallConfig(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->total_triples(), b->total_triples());
}

TEST(GeneratorTest, KbNamesMarkCenterAndPeriphery) {
  auto cloud = GenerateLodCloud(SmallConfig());
  ASSERT_TRUE(cloud.ok());
  ASSERT_EQ(cloud->kbs.size(), 5u);
  EXPECT_TRUE(cloud->kbs[0].is_center);
  EXPECT_TRUE(cloud->kbs[1].is_center);
  EXPECT_FALSE(cloud->kbs[2].is_center);
  EXPECT_NE(cloud->kbs[0].name.find("center"), std::string::npos);
  EXPECT_NE(cloud->kbs[4].name.find("periphery"), std::string::npos);
}

TEST(GeneratorTest, CenterCoversMoreThanPeriphery) {
  auto cloud = GenerateLodCloud(SmallConfig());
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  const uint32_t center_min = std::min(collection->kb(0).num_entities(),
                                       collection->kb(1).num_entities());
  for (uint32_t k = 2; k < collection->num_kbs(); ++k) {
    EXPECT_LT(collection->kb(k).num_entities(), center_min)
        << "periphery KB " << k << " should describe fewer entities";
  }
}

TEST(GeneratorTest, TruthPairsAreCrossKb) {
  auto cloud = GenerateLodCloud(SmallConfig());
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  for (const TruthPair& p : cloud->truth) {
    const EntityId a = collection->FindByIri(p.iri_a);
    const EntityId b = collection->FindByIri(p.iri_b);
    ASSERT_NE(a, kInvalidEntity) << p.iri_a;
    ASSERT_NE(b, kInvalidEntity) << p.iri_b;
    EXPECT_TRUE(collection->CrossKb(a, b));
  }
}

TEST(GeneratorTest, ClusterMapConsistentWithTruth) {
  auto cloud = GenerateLodCloud(SmallConfig());
  ASSERT_TRUE(cloud.ok());
  std::unordered_map<std::string, uint32_t> cluster(
      cloud->iri_to_cluster.begin(), cloud->iri_to_cluster.end());
  for (const TruthPair& p : cloud->truth) {
    ASSERT_TRUE(cluster.count(p.iri_a));
    ASSERT_TRUE(cluster.count(p.iri_b));
    EXPECT_EQ(cluster[p.iri_a], cluster[p.iri_b]);
  }
}

TEST(GeneratorTest, SameAsLinksAreTrueMatches) {
  LodCloudConfig cfg = SmallConfig();
  cfg.same_as_rate = 0.5;
  auto cloud = GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  ASSERT_TRUE(truth.ok());
  ASSERT_GT(collection->same_as_links().size(), 0u);
  for (const SameAsLink& link : collection->same_as_links()) {
    EXPECT_TRUE(truth->Matches(link.a, link.b));
  }
}

TEST(GeneratorTest, SameAsRateZeroMeansNoLinks) {
  LodCloudConfig cfg = SmallConfig();
  cfg.same_as_rate = 0.0;
  auto cloud = GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  EXPECT_EQ(collection->same_as_links().size(), 0u);
}

TEST(GeneratorTest, RelationsMirrorRealGraph) {
  auto cloud = GenerateLodCloud(SmallConfig());
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  uint64_t relations = 0;
  for (const EntityDescription& e : collection->entities()) {
    relations += e.relations.size();
  }
  EXPECT_GT(relations, 0u) << "KBs must assert relation edges";
}

TEST(GeneratorTest, CenterDuplicatesShareMoreTokens) {
  LodCloudConfig cfg = SmallConfig(13);
  cfg.center_token_overlap = 0.9;
  cfg.periphery_token_overlap = 0.2;
  auto cloud = GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  auto avg_jaccard = [&](bool center_only) {
    double sum = 0;
    int n = 0;
    for (const TruthPair& p : cloud->truth) {
      const EntityId a = collection->FindByIri(p.iri_a);
      const EntityId b = collection->FindByIri(p.iri_b);
      const bool both_center = collection->entity(a).kb < cfg.center_kbs &&
                               collection->entity(b).kb < cfg.center_kbs;
      const bool both_periph = collection->entity(a).kb >= cfg.center_kbs &&
                               collection->entity(b).kb >= cfg.center_kbs;
      if ((center_only && both_center) || (!center_only && both_periph)) {
        sum += JaccardSimilarity(collection->entity(a).tokens,
                                 collection->entity(b).tokens);
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double center = avg_jaccard(true);
  const double periphery = avg_jaccard(false);
  EXPECT_GT(center, periphery + 0.1)
      << "highly similar (center) vs somehow similar (periphery)";
}

TEST(GeneratorTest, SkewedInterlinking) {
  LodCloudConfig cfg = SmallConfig(17);
  cfg.num_kbs = 8;
  cfg.center_kbs = 2;
  cfg.same_as_rate = 0.4;
  auto cloud = GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  const CloudStats stats = ComputeCloudStats(*collection);
  EXPECT_GT(stats.link_gini, 0.2) << "link mass should be concentrated";
  EXPECT_GT(stats.top_decile_link_share, 0.15);
}

TEST(GeneratorTest, ProprietaryVocabularyRateHonored) {
  LodCloudConfig cfg = SmallConfig(19);
  cfg.num_kbs = 10;
  cfg.center_kbs = 2;
  cfg.proprietary_vocab_rate = 1.0;
  auto cloud = GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  const CloudStats stats = ComputeCloudStats(*collection);
  // All non-core vocabularies are per-KB; the shared schema.minoan.org
  // class namespace is the only non-proprietary one possible.
  EXPECT_GT(stats.proprietary_ratio, 0.8);
}

// ---------------------------------------------------------------------------
// File round-trip
// ---------------------------------------------------------------------------

TEST(GeneratorTest, WriteToAndReparse) {
  const testutil::ScratchDir scratch("datagen-lodcloud");
  const std::string dir = scratch.str() + "/lodcloud";
  auto cloud = GenerateLodCloud(SmallConfig(23));
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(cloud->WriteTo(dir).ok());

  // Every KB file reparses to the same triple count, strictly.
  rdf::NTriplesOptions strict;
  strict.strict = true;
  rdf::NTriplesParser parser(strict);
  EntityCollection reparsed;
  for (const GeneratedKb& kb : cloud->kbs) {
    auto triples = parser.ParseFile(dir + "/" + kb.name + ".nt");
    ASSERT_TRUE(triples.ok()) << triples.status();
    EXPECT_EQ(triples->size(), kb.triples.size());
    ASSERT_TRUE(reparsed.AddKnowledgeBase(kb.name, *triples).ok());
  }
  ASSERT_TRUE(reparsed.Finalize().ok());

  // The ground-truth TSV loads against the reparsed collection.
  auto truth = GroundTruth::FromTsv(dir + "/ground_truth.tsv", reparsed);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_GT(truth->num_pairs(), 0u);
}

TEST(GeneratorTest, TruthSizeMatchesClosure) {
  auto cloud = GenerateLodCloud(SmallConfig(29));
  ASSERT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  ASSERT_TRUE(collection.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *collection);
  ASSERT_TRUE(truth.ok());
  // The generator emits all unordered cross-KB pairs per real entity, whose
  // closure equals exactly those pairs (IRIs per KB are distinct entities).
  EXPECT_EQ(truth->num_pairs(), cloud->truth.size());
}

}  // namespace
}  // namespace datagen
}  // namespace minoan
