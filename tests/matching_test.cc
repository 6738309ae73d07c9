// Unit tests for the matching module: similarity evaluator (and its
// bit parity with the reference kernels), union-find, batch matcher, and
// unique-mapping clustering.

#include <bit>
#include <cmath>

#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "matching/union_find.h"
#include "online/online_resolver.h"
#include "rdf/ntriples.h"
#include "text/similarity.h"

namespace minoan {
namespace {

std::vector<rdf::Triple> Parse(const std::string& doc) {
  rdf::NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

EntityCollection MatchingFixture() {
  EntityCollection c;
  EXPECT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/knossos> <http://a/p/name> "knossos minoan palace crete" .
<http://a/phaistos> <http://a/p/name> "phaistos minoan palace disc" .
<http://a/athens> <http://a/p/name> "athens acropolis parthenon greece" .
)")).ok());
  EXPECT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/e1> <http://b/p/label> "knossos minoan palace heraklion crete" .
<http://b/e2> <http://b/p/label> "athens acropolis hill" .
<http://b/e3> <http://b/p/label> "unrelated random tokens entirely" .
)")).ok());
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

// ---------------------------------------------------------------------------
// SimilarityEvaluator
// ---------------------------------------------------------------------------

TEST(SimilarityEvaluatorTest, MatchingPairScoresHigh) {
  EntityCollection c = MatchingFixture();
  SimilarityEvaluator eval(c);
  const EntityId ka = c.FindByIri("http://a/knossos");
  const EntityId kb = c.FindByIri("http://b/e1");
  const EntityId ua = c.FindByIri("http://b/e3");
  EXPECT_GT(eval.Similarity(ka, kb), 0.35);
  EXPECT_LT(eval.Similarity(ka, ua), 0.1);
}

TEST(SimilarityEvaluatorTest, SymmetricAndBounded) {
  EntityCollection c = MatchingFixture();
  SimilarityEvaluator eval(c);
  for (EntityId a = 0; a < c.num_entities(); ++a) {
    for (EntityId b = 0; b < c.num_entities(); ++b) {
      const double s = eval.Similarity(a, b);
      EXPECT_DOUBLE_EQ(s, eval.Similarity(b, a));
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0 + 1e-12);
    }
  }
}

TEST(SimilarityEvaluatorTest, SelfSimilarityIsMax) {
  EntityCollection c = MatchingFixture();
  SimilarityEvaluator eval(c);
  for (EntityId e = 0; e < c.num_entities(); ++e) {
    EXPECT_NEAR(eval.Similarity(e, e), 1.0, 1e-9);
  }
}

/// The profile kernel's components, as ProfileSimilarity computes them at
/// the end weights of the blend: at weight 1 the blend is exactly the
/// cosine (1·c + 0·j == c), and without TF-IDF it is the Jaccard alone.
constexpr SimilarityOptions kCosineOnly{1.0, /*use_tfidf=*/true};
constexpr SimilarityOptions kJaccardOnly{0.0, /*use_tfidf=*/false};

double Component(const SimilarityEvaluator& eval, EntityId a, EntityId b,
                 const SimilarityOptions& component) {
  return ProfileSimilarity(eval.View(a), eval.View(b), component);
}

TEST(SimilarityEvaluatorTest, JaccardOnlyModeCheaper) {
  EntityCollection c = MatchingFixture();
  SimilarityOptions opts;
  opts.use_tfidf = false;
  SimilarityEvaluator eval(c, opts);
  const EntityId ka = c.FindByIri("http://a/knossos");
  const EntityId kb = c.FindByIri("http://b/e1");
  EXPECT_DOUBLE_EQ(eval.Similarity(ka, kb),
                   Component(eval, ka, kb, kJaccardOnly));
  EXPECT_EQ(eval.View(ka).weights, nullptr);  // no TF-IDF arena built
}

TEST(SimilarityEvaluatorTest, TfIdfDiscountsCommonTokens) {
  // "minoan palace" appear in 2 of 3 KB-a entities; rare tokens should
  // dominate the TF-IDF component.
  EntityCollection c = MatchingFixture();
  SimilarityEvaluator eval(c);
  const EntityId knossos_a = c.FindByIri("http://a/knossos");
  const EntityId knossos_b = c.FindByIri("http://b/e1");
  const EntityId phaistos = c.FindByIri("http://a/phaistos");
  // knossos_a shares rare "knossos"+"crete" with knossos_b, but only the
  // frequent "minoan palace" with phaistos.
  EXPECT_GT(Component(eval, knossos_a, knossos_b, kCosineOnly),
            Component(eval, knossos_a, phaistos, kCosineOnly));
}

TEST(SimilarityEvaluatorTest, WeightInterpolation) {
  EntityCollection c = MatchingFixture();
  SimilarityOptions all_cosine;
  all_cosine.tfidf_weight = 1.0;
  SimilarityOptions all_jaccard;
  all_jaccard.tfidf_weight = 0.0;
  SimilarityEvaluator ec(c, all_cosine);
  SimilarityEvaluator ej(c, all_jaccard);
  const EntityId a = c.FindByIri("http://a/knossos");
  const EntityId b = c.FindByIri("http://b/e1");
  EXPECT_DOUBLE_EQ(ec.Similarity(a, b), Component(ec, a, b, kCosineOnly));
  EXPECT_DOUBLE_EQ(ej.Similarity(a, b), Component(ej, a, b, kJaccardOnly));
}

// ---------------------------------------------------------------------------
// ProfileSimilarity: bit parity with the reference kernels
// ---------------------------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Per-entity (token, tf·idf) vectors over the token bag, idf ≤ 0 tokens
/// left out: the layout the reference WeightedCosineSimilarity reads.
std::vector<std::vector<WeightedToken>> ReferenceTfidf(
    const EntityCollection& c) {
  std::vector<std::vector<WeightedToken>> out(c.num_entities());
  for (const EntityDescription& desc : c.entities()) {
    const auto& bag = desc.token_bag;
    for (size_t i = 0; i < bag.size();) {
      size_t j = i;
      while (j < bag.size() && bag[j] == bag[i]) ++j;
      const double idf = c.TokenIdf(bag[i]);
      if (idf > 0.0) {
        out[desc.id].push_back(
            WeightedToken{bag[i], static_cast<double>(j - i) * idf});
      }
      i = j;
    }
  }
  return out;
}

/// w · WeightedCosineSimilarity + (1 − w) · JaccardSimilarity.
double ReferenceSimilarity(
    const EntityCollection& c,
    const std::vector<std::vector<WeightedToken>>& tfidf, EntityId a,
    EntityId b, const SimilarityOptions& options) {
  const double jaccard =
      JaccardSimilarity(c.entity(a).tokens, c.entity(b).tokens);
  if (!options.use_tfidf) return jaccard;
  return options.tfidf_weight * WeightedCosineSimilarity(tfidf[a], tfidf[b]) +
         (1.0 - options.tfidf_weight) * jaccard;
}

std::vector<SimilarityOptions> AllKernelOptions() {
  std::vector<SimilarityOptions> out;
  for (const bool use_tfidf : {true, false}) {
    for (const double w : {0.0, 0.5, 1.0}) {
      out.push_back(SimilarityOptions{w, use_tfidf});
    }
  }
  return out;
}

/// Every ordered pair (self-pairs included), every option combination.
void ExpectAllPairsBitIdentical(const EntityCollection& c) {
  const auto tfidf = ReferenceTfidf(c);
  for (const SimilarityOptions& options : AllKernelOptions()) {
    const SimilarityEvaluator eval(c, options);
    for (EntityId a = 0; a < c.num_entities(); ++a) {
      for (EntityId b = 0; b < c.num_entities(); ++b) {
        EXPECT_EQ(Bits(eval.Similarity(a, b)),
                  Bits(ReferenceSimilarity(c, tfidf, a, b, options)))
            << "pair (" << a << ", " << b << ") w=" << options.tfidf_weight
            << " tfidf=" << options.use_tfidf;
      }
    }
  }
}

EntityCollection OneKb(const std::string& doc) {
  EntityCollection c;
  EXPECT_TRUE(c.AddKnowledgeBase("k", Parse(doc)).ok());
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

TEST(ProfileKernelTest, EmptyAndDisjointProfilesMatchReference) {
  // Single-character IRI names and the literal "z" produce no tokens
  // (min_token_length 2), so d and e have empty profiles.
  const EntityCollection c = OneKb(R"(
<http://k/a> <http://k/p> "alpha beta" .
<http://k/b> <http://k/p> "gamma delta" .
<http://k/d> <http://k/p> "z" .
<http://k/e> <http://k/p> "z" .
)");
  const EntityId a = c.FindByIri("http://k/a");
  const EntityId b = c.FindByIri("http://k/b");
  const EntityId d = c.FindByIri("http://k/d");
  const EntityId e = c.FindByIri("http://k/e");
  ASSERT_TRUE(c.entity(d).tokens.empty());
  ASSERT_TRUE(c.entity(e).tokens.empty());
  const SimilarityEvaluator eval(c);
  EXPECT_EQ(Bits(eval.Similarity(d, e)), Bits(0.0));  // both empty
  EXPECT_EQ(Bits(eval.Similarity(a, d)), Bits(0.0));  // one empty
  EXPECT_EQ(Bits(eval.Similarity(a, b)), Bits(0.0));  // disjoint
  ExpectAllPairsBitIdentical(c);
}

TEST(ProfileKernelTest, RepeatedAndZeroIdfTokensMatchReference) {
  // "common" is in every description (df == N, idf 0), so it must add
  // exactly +0.0 to dot products and norms; b repeats tokens (tf > 1); f
  // duplicates a; g's only token is the idf-0 one (norm 0, cosine 0); c
  // shares nothing with a but "common" (Jaccard > 0, cosine 0).
  const EntityCollection c = OneKb(R"(
<http://k/a> <http://k/p> "alpha beta gamma common" .
<http://k/b> <http://k/p> "alpha alpha delta common common" .
<http://k/c> <http://k/p> "epsilon zeta common" .
<http://k/f> <http://k/p> "alpha beta gamma common" .
<http://k/g> <http://k/p> "common" .
)");
  const uint32_t common = c.tokens().Find("common");
  ASSERT_NE(common, kInternNotFound);
  ASSERT_EQ(c.TokenIdf(common), 0.0);
  const EntityId a = c.FindByIri("http://k/a");
  const EntityId b = c.FindByIri("http://k/b");
  const EntityId cc = c.FindByIri("http://k/c");
  const EntityId f = c.FindByIri("http://k/f");
  const EntityId g = c.FindByIri("http://k/g");
  ASSERT_GT(c.entity(b).token_bag.size(), c.entity(b).tokens.size());
  const SimilarityEvaluator eval(c);
  EXPECT_EQ(eval.View(g).norm, 0.0);
  EXPECT_EQ(Bits(Component(eval, a, g, kCosineOnly)), Bits(0.0));
  EXPECT_EQ(Bits(Component(eval, a, cc, kCosineOnly)), Bits(0.0));
  EXPECT_GT(Component(eval, a, cc, kJaccardOnly), 0.0);
  EXPECT_NEAR(eval.Similarity(a, f), 1.0, 1e-12);
  ExpectAllPairsBitIdentical(c);
}

datagen::LodCloud KernelCloud() {
  datagen::LodCloudConfig cfg;
  cfg.seed = 29;
  cfg.num_real_entities = 1300;  // ~2,000 descriptions over 6 KBs
  auto cloud = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud.ok());
  return std::move(cloud).value();
}

TEST(ProfileKernelTest, EveryCandidatePairOfGeneratedCloud) {
  auto collection = KernelCloud().BuildCollection();
  ASSERT_TRUE(collection.ok());
  const EntityCollection& c = *collection;
  ASSERT_GE(c.num_entities(), 1800u);
  const std::vector<Comparison> pairs =
      TokenBlocking().Build(c).DistinctComparisons(c, ResolutionMode::kDirty);
  ASSERT_GT(pairs.size(), 10000u);
  const auto tfidf = ReferenceTfidf(c);
  for (const SimilarityOptions& options : AllKernelOptions()) {
    const SimilarityEvaluator eval(c, options);
    size_t mismatches = 0;
    for (const Comparison& p : pairs) {
      mismatches +=
          Bits(eval.Similarity(p.a, p.b)) !=
          Bits(ReferenceSimilarity(c, tfidf, p.a, p.b, options));
    }
    EXPECT_EQ(mismatches, 0u) << "of " << pairs.size() << " pairs, w="
                              << options.tfidf_weight
                              << " tfidf=" << options.use_tfidf;
  }
}

TEST(ProfileKernelTest, OnlineViewsMatchArenaRows) {
  auto collection = KernelCloud().BuildCollection();
  ASSERT_TRUE(collection.ok());
  const online::OnlineResolver engine(online::OnlineOptions{},
                                      std::move(collection).value());
  const EntityCollection& c = engine.collection();
  const SimilarityEvaluator eval(c);
  const SimilarityEvaluator jaccard_only(c, SimilarityOptions{0.5, false});
  std::vector<double> weights;
  for (EntityId e = 0; e < c.num_entities(); ++e) {
    const ProfileView row = eval.View(e);
    const ProfileView online = BuildProfileView(c, e, true, weights);
    ASSERT_EQ(online.size, row.size) << "entity " << e;
    for (size_t i = 0; i < row.size; ++i) {
      ASSERT_EQ(online.ids[i], row.ids[i]) << "entity " << e;
      ASSERT_EQ(Bits(online.weights[i]), Bits(row.weights[i]))
          << "entity " << e << " token " << i;
    }
    ASSERT_EQ(Bits(online.norm), Bits(row.norm)) << "entity " << e;
    // Without TF-IDF neither side stores or exposes weights.
    EXPECT_EQ(BuildProfileView(c, e, false, weights).weights, nullptr);
    EXPECT_EQ(jaccard_only.View(e).weights, nullptr);
  }
}

// ---------------------------------------------------------------------------
// UnionFind
// ---------------------------------------------------------------------------

TEST(UnionFindTest, BasicUnionAndFind) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already same set
  EXPECT_TRUE(uf.SameSet(0, 2));
  EXPECT_FALSE(uf.SameSet(0, 3));
  EXPECT_EQ(uf.SetSize(1), 3u);
  EXPECT_EQ(uf.SetSize(4), 1u);
}

TEST(UnionFindTest, ClustersSortedAndFiltered) {
  UnionFind uf(6);
  uf.Union(4, 2);
  uf.Union(2, 0);
  const auto clusters = uf.Clusters(2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<uint32_t>{0, 2, 4}));
  const auto all = uf.Clusters(1);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].front(), 0u);  // sorted by smallest member
}

TEST(UnionFindTest, LargeChainStaysConsistent) {
  const uint32_t n = 10000;
  UnionFind uf(n);
  for (uint32_t i = 1; i < n; ++i) uf.Union(i - 1, i);
  EXPECT_EQ(uf.SetSize(0), n);
  EXPECT_TRUE(uf.SameSet(0, n - 1));
}

// ---------------------------------------------------------------------------
// BatchMatcher
// ---------------------------------------------------------------------------

TEST(BatchMatcherTest, ThresholdSplitsMatches) {
  EntityCollection c = MatchingFixture();
  SimilarityEvaluator eval(c);
  MatcherOptions opts;
  opts.threshold = 0.3;
  BatchMatcher matcher(eval, opts);
  std::vector<Comparison> order;
  for (EntityId a = 0; a < 3; ++a) {
    for (EntityId b = 3; b < 6; ++b) order.emplace_back(a, b);
  }
  const ResolutionRun run = matcher.Run(order);
  EXPECT_EQ(run.comparisons_executed, 9u);
  // knossos and athens pairs should match; nothing should pair with e3.
  const EntityId e3 = c.FindByIri("http://b/e3");
  for (const MatchEvent& m : run.matches) {
    EXPECT_NE(m.a, e3);
    EXPECT_NE(m.b, e3);
    EXPECT_GE(m.similarity, 0.3);
  }
  EXPECT_GE(run.matches.size(), 2u);
}

TEST(BatchMatcherTest, BudgetCutsExecution) {
  EntityCollection c = MatchingFixture();
  SimilarityEvaluator eval(c);
  MatcherOptions opts;
  opts.threshold = 0.0;  // everything matches
  opts.budget = 4;
  BatchMatcher matcher(eval, opts);
  std::vector<Comparison> order;
  for (EntityId a = 0; a < 3; ++a) {
    for (EntityId b = 3; b < 6; ++b) order.emplace_back(a, b);
  }
  const ResolutionRun run = matcher.Run(order);
  EXPECT_EQ(run.comparisons_executed, 4u);
  EXPECT_EQ(run.matches.size(), 4u);
  // Match events are stamped with 1-based comparison counts.
  EXPECT_EQ(run.matches.front().comparisons_done, 1u);
  EXPECT_EQ(run.matches.back().comparisons_done, 4u);
}

TEST(BatchMatcherTest, ClosureMergesMatches) {
  ResolutionRun run;
  run.matches.push_back({1, 0, 3, 0.9});
  run.matches.push_back({2, 3, 5, 0.8});
  UnionFind closure = run.BuildClosure(6);
  EXPECT_TRUE(closure.SameSet(0, 5));
  EXPECT_FALSE(closure.SameSet(0, 1));
}

// ---------------------------------------------------------------------------
// UniqueMappingClustering
// ---------------------------------------------------------------------------

TEST(UniqueMappingTest, KeepsBestPerKbSlot) {
  EntityCollection c = MatchingFixture();
  // Entities 0..2 in KB a; 3..5 in KB b.
  std::vector<MatchEvent> matches = {
      {1, 0, 3, 0.9},  // best for 0
      {2, 0, 4, 0.7},  // 0 already mapped to KB b -> dropped
      {3, 1, 4, 0.6},  // kept
      {4, 2, 4, 0.5},  // 4 already mapped -> dropped
      {5, 2, 5, 0.4},  // kept
  };
  const auto kept = UniqueMappingClustering(matches, c);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].similarity, 0.9);
  EXPECT_EQ(kept[1].similarity, 0.6);
  EXPECT_EQ(kept[2].similarity, 0.4);
}

TEST(UniqueMappingTest, SameKbPairsDropped) {
  EntityCollection c = MatchingFixture();
  std::vector<MatchEvent> matches = {{1, 0, 1, 0.99}};  // both KB a
  EXPECT_TRUE(UniqueMappingClustering(matches, c).empty());
}

TEST(UniqueMappingTest, OrderIndependentOfInput) {
  EntityCollection c = MatchingFixture();
  std::vector<MatchEvent> matches = {
      {1, 0, 4, 0.7}, {2, 0, 3, 0.9}, {3, 1, 4, 0.6}};
  std::vector<MatchEvent> reversed(matches.rbegin(), matches.rend());
  const auto a = UniqueMappingClustering(matches, c);
  const auto b = UniqueMappingClustering(reversed, c);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].similarity, b[i].similarity);
  }
}

}  // namespace
}  // namespace minoan
