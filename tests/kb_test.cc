// Unit tests for the kb module: entity-collection ingestion, neighbor graph,
// and cloud statistics.

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "kb/collection.h"
#include "kb/neighbor_graph.h"
#include "kb/stats.h"
#include "loader_corpus.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "scratch_dir.h"
#include "util/serde.h"

namespace minoan {
namespace {

using rdf::NTriplesParser;
using rdf::Triple;

std::vector<Triple> Parse(const std::string& doc) {
  NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

constexpr const char* kKbA = R"(
<http://a.org/r/crete> <http://a.org/v/name> "Crete Island" .
<http://a.org/r/crete> <http://a.org/v/capital> <http://a.org/r/heraklion> .
<http://a.org/r/heraklion> <http://a.org/v/name> "Heraklion" .
<http://a.org/r/heraklion> <http://a.org/v/founded> "0824"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://a.org/r/heraklion> <http://www.w3.org/2002/07/owl#sameAs> <http://b.org/place/heraklion> .
<http://a.org/r/crete> <http://a.org/v/sea> <http://external.org/mediterranean> .
)";

constexpr const char* kKbB = R"(
<http://b.org/place/heraklion> <http://b.org/p/label> "Heraklion city" .
<http://b.org/place/knossos> <http://b.org/p/label> "Knossos palace" .
<http://b.org/place/heraklion> <http://b.org/p/near> <http://b.org/place/knossos> .
)";

EntityCollection BuildTwoKbs(CollectionOptions opts = {}) {
  EntityCollection c(opts);
  EXPECT_TRUE(c.AddKnowledgeBase("kbA", Parse(kKbA)).ok());
  EXPECT_TRUE(c.AddKnowledgeBase("kbB", Parse(kKbB)).ok());
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

// ---------------------------------------------------------------------------
// Ingestion basics
// ---------------------------------------------------------------------------

TEST(CollectionTest, EntitiesPerKb) {
  EntityCollection c = BuildTwoKbs();
  EXPECT_EQ(c.num_kbs(), 2u);
  EXPECT_EQ(c.kb(0).num_entities(), 2u);  // crete, heraklion
  EXPECT_EQ(c.kb(1).num_entities(), 2u);  // heraklion, knossos
  EXPECT_EQ(c.num_entities(), 4u);
  EXPECT_EQ(c.kb(0).name, "kbA");
}

TEST(CollectionTest, FindByIri) {
  EntityCollection c = BuildTwoKbs();
  const EntityId crete = c.FindByIri("http://a.org/r/crete");
  ASSERT_NE(crete, kInvalidEntity);
  EXPECT_EQ(c.EntityIri(crete), "http://a.org/r/crete");
  EXPECT_EQ(c.FindByIri("http://nowhere.org/x"), kInvalidEntity);
}

TEST(CollectionTest, IntraKbObjectBecomesRelation) {
  EntityCollection c = BuildTwoKbs();
  const EntityId crete = c.FindByIri("http://a.org/r/crete");
  const EntityId heraklion = c.FindByIri("http://a.org/r/heraklion");
  bool found = false;
  for (const Relation& r : c.entity(crete).relations) {
    if (r.target == heraklion) found = true;
  }
  EXPECT_TRUE(found) << "capital edge should be a relation";
}

TEST(CollectionTest, ExternalIriBecomesAttribute) {
  EntityCollection c = BuildTwoKbs();
  const EntityId crete = c.FindByIri("http://a.org/r/crete");
  // <http://external.org/mediterranean> is undescribed: its local name must
  // appear among crete's tokens.
  const uint32_t tok = c.tokens().Find("mediterranean");
  ASSERT_NE(tok, kInternNotFound);
  const auto& tokens = c.entity(crete).tokens;
  EXPECT_TRUE(std::binary_search(tokens.begin(), tokens.end(), tok));
}

TEST(CollectionTest, SameAsCapturedNotRelation) {
  EntityCollection c = BuildTwoKbs();
  ASSERT_EQ(c.same_as_links().size(), 1u);
  const SameAsLink link = c.same_as_links()[0];
  EXPECT_EQ(c.EntityIri(link.a), "http://a.org/r/heraklion");
  EXPECT_EQ(c.EntityIri(link.b), "http://b.org/place/heraklion");
  // And it must NOT appear as a relation edge.
  for (const Relation& r : c.entity(link.a).relations) {
    EXPECT_NE(r.target, link.b);
  }
}

TEST(CollectionTest, UnresolvableSameAsDropped) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("kbA", Parse(kKbA)).ok());
  // kbB never added: the sameAs target stays unresolved.
  ASSERT_TRUE(c.Finalize().ok());
  EXPECT_TRUE(c.same_as_links().empty());
}

TEST(CollectionTest, IriSuffixTokensIndexed) {
  EntityCollection c = BuildTwoKbs();
  const EntityId knossos = c.FindByIri("http://b.org/place/knossos");
  const uint32_t tok = c.tokens().Find("knossos");
  ASSERT_NE(tok, kInternNotFound);
  const auto& tokens = c.entity(knossos).tokens;
  EXPECT_TRUE(std::binary_search(tokens.begin(), tokens.end(), tok));
}

TEST(CollectionTest, TokensSortedUnique) {
  EntityCollection c = BuildTwoKbs();
  for (const EntityDescription& e : c.entities()) {
    EXPECT_TRUE(std::is_sorted(e.tokens.begin(), e.tokens.end()));
    EXPECT_EQ(std::adjacent_find(e.tokens.begin(), e.tokens.end()),
              e.tokens.end());
    EXPECT_TRUE(std::is_sorted(e.token_bag.begin(), e.token_bag.end()));
    EXPECT_GE(e.token_bag.size(), e.tokens.size());
  }
}

TEST(CollectionTest, DocumentFrequencies) {
  EntityCollection c = BuildTwoKbs();
  const uint32_t heraklion = c.tokens().Find("heraklion");
  ASSERT_NE(heraklion, kInternNotFound);
  // kbA:heraklion (name + IRI) and kbB:heraklion (label + IRI) -> df = 2.
  EXPECT_EQ(c.TokenDf(heraklion), 2u);
  EXPECT_GT(c.TokenIdf(heraklion), 0.0);
}

TEST(CollectionTest, StopTokenRemoval) {
  CollectionOptions opts;
  opts.max_token_frequency = 0.4;  // tokens in >40% of 4 entities dropped
  EntityCollection c = BuildTwoKbs(opts);
  // "heraklion" appears in 2/4 entities = 50% > 40% -> dropped everywhere.
  const uint32_t tok = c.tokens().Find("heraklion");
  ASSERT_NE(tok, kInternNotFound);
  for (const EntityDescription& e : c.entities()) {
    EXPECT_FALSE(std::binary_search(e.tokens.begin(), e.tokens.end(), tok));
  }
}

TEST(CollectionTest, AddAfterFinalizeFails) {
  EntityCollection c = BuildTwoKbs();
  auto result = c.AddKnowledgeBase("late", Parse(kKbB));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CollectionTest, DoubleFinalizeFails) {
  EntityCollection c = BuildTwoKbs();
  EXPECT_FALSE(c.Finalize().ok());
}

TEST(CollectionTest, BlankNodesScopedPerKb) {
  const char* doc = R"(
_:n <http://x/p> "left" .
)";
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("k1", Parse(doc)).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("k2", Parse(doc)).ok());
  ASSERT_TRUE(c.Finalize().ok());
  // Same label "_:n" in two KBs -> two distinct entities.
  EXPECT_EQ(c.num_entities(), 2u);
  EXPECT_NE(c.entity(0).iri, c.entity(1).iri);
}

TEST(CollectionTest, CrossKbPredicate) {
  EntityCollection c = BuildTwoKbs();
  const EntityId a = c.FindByIri("http://a.org/r/crete");
  const EntityId b = c.FindByIri("http://b.org/place/knossos");
  const EntityId a2 = c.FindByIri("http://a.org/r/heraklion");
  EXPECT_TRUE(c.CrossKb(a, b));
  EXPECT_FALSE(c.CrossKb(a, a2));
}

TEST(CollectionTest, TypeIndexingToggle) {
  const char* doc = R"(
<http://x/e> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/class/artifact> .
<http://x/e> <http://x/p> "payload" .
)";
  CollectionOptions with_types;
  EntityCollection c1(with_types);
  ASSERT_TRUE(c1.AddKnowledgeBase("k", Parse(doc)).ok());
  ASSERT_TRUE(c1.Finalize().ok());
  EXPECT_NE(c1.tokens().Find("artifact"), kInternNotFound);

  CollectionOptions no_types;
  no_types.index_types = false;
  EntityCollection c2(no_types);
  ASSERT_TRUE(c2.AddKnowledgeBase("k", Parse(doc)).ok());
  ASSERT_TRUE(c2.Finalize().ok());
  EXPECT_EQ(c2.tokens().Find("artifact"), kInternNotFound);
}

// ---------------------------------------------------------------------------
// Corpus loader parity
// ---------------------------------------------------------------------------

/// The collection of `dir` built the other way: each corpus file, in the
/// loader's order, parsed into Triples by LoadTriples and added by the
/// Triple overload of AddKnowledgeBase.
std::string SavedViaTriples(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".nt" || ext == ".ttl" || ext == ".turtle") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  EntityCollection collection;
  for (const std::filesystem::path& file : files) {
    auto triples = rdf::LoadTriples(file.string());
    EXPECT_TRUE(triples.ok()) << file;
    if (!triples.ok()) return "";
    EXPECT_TRUE(
        collection.AddKnowledgeBase(file.stem().string(), *triples).ok());
  }
  EXPECT_TRUE(collection.Finalize().ok());
  return testutil::SavedBytes(collection);
}

/// LoadCorpusDirectory at 1, 2, 4 and 7 threads saves the bytes of the
/// Triple path.
void ExpectLoaderParity(const std::string& dir) {
  const std::string reference = SavedViaTriples(dir);
  ASSERT_FALSE(reference.empty());
  for (const uint32_t threads : {1u, 2u, 4u, 7u}) {
    auto loaded = LoadCorpusDirectory(dir, threads);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_TRUE(testutil::SavedBytes(*loaded) == reference)
        << "collection differs at " << threads << " threads";
  }
}

TEST(LoaderParityTest, HandCorpusMatchesTheTriplePathAtEveryThreadCount) {
  const testutil::ScratchDir scratch("loader-hand");
  testutil::WriteHandCorpus(scratch.str());
  ExpectLoaderParity(scratch.str());
  auto loaded = LoadCorpusDirectory(scratch.str(), 4);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_kbs(), 4u);  // notes.txt is not a corpus file
  EXPECT_EQ(loaded->kb(0).triples, 13u);  // two malformed lines skipped
  EXPECT_EQ(loaded->kb(1).triples, 8u);   // the last line has no newline
  EXPECT_EQ(loaded->kb(3).num_entities(), 0u);
  // Escapes are decoded before interning: <...knossos\u0031> is the
  // entity <...knossos1> that _:site points at.
  const EntityId knossos = loaded->FindByIri("http://a.org/r/knossos1");
  ASSERT_NE(knossos, kInvalidEntity);
  bool points_at_knossos = false;
  for (const EntityDescription& e : loaded->entities()) {
    for (const Relation& r : e.relations) {
      points_at_knossos = points_at_knossos || r.target == knossos;
    }
  }
  EXPECT_TRUE(points_at_knossos);
  EXPECT_EQ(loaded->same_as_links().size(), 3u);
}

TEST(LoaderParityTest, MultiChunkCloudMatchesTheTriplePathAtEveryThreadCount) {
  const testutil::ScratchDir scratch("loader-cloud");
  testutil::WriteLoaderCloud(scratch.str());
  // The loader scans 1 MiB chunks: each center file spans several.
  for (const char* center : {"/kb00-center.nt", "/kb01-center.nt"}) {
    EXPECT_GT(std::filesystem::file_size(scratch.str() + center),
              uintmax_t{2} << 20)
        << center;
  }
  ExpectLoaderParity(scratch.str());
}

// ---------------------------------------------------------------------------
// Serialization: token-list consistency on load
// ---------------------------------------------------------------------------

/// One entity's serialized token lists: count + ids, then count + bag.
std::string TokenListBytes(const std::vector<uint32_t>& tokens,
                           const std::vector<uint32_t>& bag) {
  std::ostringstream out;
  serde::WriteU32(out, static_cast<uint32_t>(tokens.size()));
  for (const uint32_t t : tokens) serde::WriteU32(out, t);
  serde::WriteU32(out, static_cast<uint32_t>(bag.size()));
  for (const uint32_t t : bag) serde::WriteU32(out, t);
  return out.str();
}

Status LoadBlob(const std::string& blob) {
  std::istringstream in(blob);
  EntityCollection loaded;
  return loaded.Load(in);
}

TEST(CollectionSerdeTest, InconsistentTokenListsAreParseErrors) {
  const EntityCollection c = BuildTwoKbs();
  std::ostringstream saved;
  ASSERT_TRUE(c.Save(saved).ok());
  const std::string blob = saved.str();
  ASSERT_TRUE(LoadBlob(blob).ok());

  // An entity with two or more tokens, one of which occurs once in its bag
  // (so dropping that bag entry removes the id from the bag altogether).
  const EntityDescription* victim = nullptr;
  uint32_t single = 0;
  for (const EntityDescription& e : c.entities()) {
    if (e.tokens.size() < 2) continue;
    for (const uint32_t t : e.tokens) {
      if (std::count(e.token_bag.begin(), e.token_bag.end(), t) == 1) {
        victim = &e;
        single = t;
        break;
      }
    }
    if (victim != nullptr) break;
  }
  ASSERT_NE(victim, nullptr);
  const std::string segment =
      TokenListBytes(victim->tokens, victim->token_bag);
  const size_t at = blob.find(segment);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.rfind(segment), at);  // the splice target is unambiguous
  const auto splice = [&](const std::vector<uint32_t>& tokens,
                          const std::vector<uint32_t>& bag) {
    return blob.substr(0, at) + TokenListBytes(tokens, bag) +
           blob.substr(at + segment.size());
  };

  std::vector<uint32_t> swapped = victim->tokens;
  std::swap(swapped[0], swapped[1]);
  std::vector<uint32_t> duplicated = victim->tokens;
  duplicated[1] = duplicated[0];
  std::vector<uint32_t> dropped = victim->token_bag;
  dropped.erase(std::find(dropped.begin(), dropped.end(), single));

  for (const auto& [what, mutated] :
       {std::pair{"swapped token ids", splice(swapped, victim->token_bag)},
        std::pair{"duplicated token id", splice(duplicated, victim->token_bag)},
        std::pair{"dropped bag entry", splice(victim->tokens, dropped)}}) {
    const Status status = LoadBlob(mutated);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << what;
  }
}

// ---------------------------------------------------------------------------
// NeighborGraph
// ---------------------------------------------------------------------------

TEST(NeighborGraphTest, UndirectedFromCollection) {
  EntityCollection c = BuildTwoKbs();
  NeighborGraph graph(c);
  const EntityId crete = c.FindByIri("http://a.org/r/crete");
  const EntityId heraklion = c.FindByIri("http://a.org/r/heraklion");
  EXPECT_TRUE(graph.AreNeighbors(crete, heraklion));
  EXPECT_TRUE(graph.AreNeighbors(heraklion, crete));  // symmetrized
}

TEST(NeighborGraphTest, ExplicitEdges) {
  NeighborGraph graph(5, {{0, 1}, {1, 2}, {0, 1}, {3, 3}});
  EXPECT_EQ(graph.num_edges(), 2u);  // dup removed, self-loop removed
  EXPECT_TRUE(graph.AreNeighbors(0, 1));
  EXPECT_TRUE(graph.AreNeighbors(2, 1));
  EXPECT_FALSE(graph.AreNeighbors(0, 2));
  EXPECT_EQ(graph.Degree(1), 2u);
  EXPECT_EQ(graph.Degree(4), 0u);
}

TEST(NeighborGraphTest, NeighborsSorted) {
  NeighborGraph graph(6, {{3, 5}, {3, 1}, {3, 4}});
  auto n = graph.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  EXPECT_EQ(n.size(), 3u);
}

TEST(NeighborGraphTest, MeanDegree) {
  NeighborGraph graph(4, {{0, 1}, {2, 3}});
  EXPECT_DOUBLE_EQ(graph.MeanDegree(), 1.0);
}

TEST(NeighborGraphTest, EmptyGraph) {
  NeighborGraph graph(3, {});
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_TRUE(graph.Neighbors(0).empty());
  EXPECT_DOUBLE_EQ(graph.MeanDegree(), 0.0);
}

// ---------------------------------------------------------------------------
// Cloud statistics
// ---------------------------------------------------------------------------

TEST(StatsTest, GiniCoefficientKnownValues) {
  EXPECT_NEAR(GiniCoefficient({1, 1, 1, 1}), 0.0, 1e-12);
  EXPECT_NEAR(GiniCoefficient({0, 0, 0, 100}), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0, 0}), 0.0);
}

TEST(StatsTest, CloudStatsBasics) {
  EntityCollection c = BuildTwoKbs();
  const CloudStats stats = ComputeCloudStats(c);
  EXPECT_EQ(stats.num_kbs, 2u);
  EXPECT_EQ(stats.num_entities, 4u);
  EXPECT_EQ(stats.num_same_as, 1u);
  ASSERT_EQ(stats.per_kb.size(), 2u);
  EXPECT_EQ(stats.per_kb[0].out_links, 1u);
  EXPECT_EQ(stats.per_kb[1].in_links, 1u);
  EXPECT_EQ(stats.per_kb[0].linked_kbs, 1u);
}

TEST(StatsTest, ProprietaryVocabularies) {
  EntityCollection c = BuildTwoKbs();
  const CloudStats stats = ComputeCloudStats(c);
  // http://a.org/v/ used only by kbA, http://b.org/p/ only by kbB: both
  // proprietary (owl# is consumed as sameAs, not an attribute namespace).
  EXPECT_EQ(stats.num_vocabularies, 2u);
  EXPECT_EQ(stats.proprietary_vocabularies, 2u);
  EXPECT_DOUBLE_EQ(stats.proprietary_ratio, 1.0);
}

TEST(StatsTest, SharedVocabularyNotProprietary) {
  const char* doc_a = R"(<http://a/e1> <http://common.org/v/name> "x" .)";
  const char* doc_b = R"(<http://b/e2> <http://common.org/v/name> "y" .)";
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(doc_a)).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(doc_b)).ok());
  ASSERT_TRUE(c.Finalize().ok());
  const CloudStats stats = ComputeCloudStats(c);
  EXPECT_EQ(stats.num_vocabularies, 1u);
  EXPECT_EQ(stats.proprietary_vocabularies, 0u);
}

}  // namespace
}  // namespace minoan
