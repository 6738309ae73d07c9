// Unit tests for the online subsystem: post-finalize appends, incremental
// blocking parity with a batch rebuild, resumable budgets, and Query
// determinism.

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "online/incremental_block_index.h"
#include "online/incremental_collection.h"
#include "online/online_resolver.h"
#include "progressive/state.h"
#include "rdf/ntriples.h"
#include "util/hash.h"
#include "util/serde.h"

namespace minoan {
namespace {

using online::DeltaPair;
using online::IncrementalBlockIndex;
using online::IncrementalCollection;
using online::OnlineBlockingOptions;
using online::OnlineOptions;
using online::OnlineResolver;
using online::OnlineStepResult;
using online::QueryCandidate;
using rdf::NTriplesParser;
using rdf::Triple;

std::vector<Triple> Parse(const std::string& doc) {
  NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

using online::GroupBySubject;

// A small two-KB cloud with literal-only descriptions (so batch and online
// ingestion classify every triple identically) plus one sameAs interlink.
constexpr const char* kKbA = R"(
<http://a.org/r/crete> <http://a.org/v/name> "Crete island history" .
<http://a.org/r/knossos> <http://a.org/v/name> "Knossos bronze palace" .
<http://a.org/r/heraklion> <http://a.org/v/name> "Heraklion port city" .
<http://a.org/r/heraklion> <http://www.w3.org/2002/07/owl#sameAs> <http://b.org/p/heraklion> .
<http://a.org/r/phaistos> <http://a.org/v/name> "Phaistos disc ruins" .
)";

constexpr const char* kKbB = R"(
<http://b.org/p/crete> <http://b.org/v/label> "Crete island" .
<http://b.org/p/heraklion> <http://b.org/v/label> "Heraklion city walls" .
<http://b.org/p/phaistos> <http://b.org/v/label> "Phaistos palace disc" .
<http://b.org/p/zakros> <http://b.org/v/label> "Zakros gorge" .
)";

using IriPair = std::pair<std::string, std::string>;

IriPair MakeIriPair(const EntityCollection& c, EntityId a, EntityId b) {
  std::string ia(c.EntityIri(a));
  std::string ib(c.EntityIri(b));
  if (ib < ia) std::swap(ia, ib);
  return {ia, ib};
}

std::set<IriPair> BatchPairs(const EntityCollection& c,
                             const BlockingMethod& method,
                             ResolutionMode mode) {
  BlockCollection blocks = method.Build(c);
  std::set<IriPair> out;
  for (const Comparison& cmp : blocks.DistinctComparisons(c, mode)) {
    out.insert(MakeIriPair(c, cmp.a, cmp.b));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Post-finalize appends (IncrementalCollection)
// ---------------------------------------------------------------------------

TEST(IncrementalCollectionTest, AppendAfterFinalize) {
  IncrementalCollection inc;
  const uint32_t kb = inc.EnsureKb("kbA");
  EXPECT_EQ(inc.EnsureKb("kbA"), kb);  // idempotent

  for (const auto& entity : GroupBySubject(Parse(kKbA))) {
    ASSERT_TRUE(inc.Ingest(kb, entity).ok());
  }
  EXPECT_EQ(inc.num_entities(), 4u);
  EXPECT_TRUE(inc.collection().finalized());

  const EntityId crete = inc.collection().FindByIri("http://a.org/r/crete");
  ASSERT_NE(crete, kInvalidEntity);
  const uint32_t tok = inc.collection().tokens().Find("crete");
  ASSERT_NE(tok, kInternNotFound);
  EXPECT_EQ(inc.collection().TokenDf(tok), 1u);
}

TEST(IncrementalCollectionTest, DuplicateSubjectRejected) {
  IncrementalCollection inc;
  const uint32_t kb = inc.EnsureKb("kbA");
  const auto entities = GroupBySubject(Parse(kKbA));
  ASSERT_TRUE(inc.Ingest(kb, entities[0]).ok());
  auto again = inc.Ingest(kb, entities[0]);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);

  // The same IRI in a DIFFERENT KB is a distinct description.
  const uint32_t other = inc.EnsureKb("kbB");
  EXPECT_TRUE(inc.Ingest(other, entities[0]).ok());
  EXPECT_EQ(inc.num_entities(), 2u);
}

TEST(IncrementalCollectionTest, BackwardRelationResolved) {
  const char* doc = R"(
<http://x/a> <http://x/v/name> "alpha settlement" .
<http://x/b> <http://x/v/name> "beta harbor" .
<http://x/b> <http://x/v/near> <http://x/a> .
)";
  IncrementalCollection inc;
  const uint32_t kb = inc.EnsureKb("x");
  for (const auto& entity : GroupBySubject(Parse(doc))) {
    ASSERT_TRUE(inc.Ingest(kb, entity).ok());
  }
  const EntityId a = inc.collection().FindByIri("http://x/a");
  const EntityId b = inc.collection().FindByIri("http://x/b");
  ASSERT_EQ(inc.collection().entity(b).relations.size(), 1u);
  EXPECT_EQ(inc.collection().entity(b).relations[0].target, a);
}

TEST(IncrementalCollectionTest, SameAsResolvedOnline) {
  IncrementalCollection inc;
  const uint32_t kb_b = inc.EnsureKb("kbB");
  for (const auto& entity : GroupBySubject(Parse(kKbB))) {
    ASSERT_TRUE(inc.Ingest(kb_b, entity).ok());
  }
  const uint32_t kb_a = inc.EnsureKb("kbA");
  for (const auto& entity : GroupBySubject(Parse(kKbA))) {
    ASSERT_TRUE(inc.Ingest(kb_a, entity).ok());
  }
  ASSERT_EQ(inc.collection().same_as_links().size(), 1u);
  const SameAsLink link = inc.collection().same_as_links()[0];
  EXPECT_EQ(inc.collection().EntityIri(link.a), "http://a.org/r/heraklion");
  EXPECT_EQ(inc.collection().EntityIri(link.b), "http://b.org/p/heraklion");
}

// ---------------------------------------------------------------------------
// Incremental blocking parity with a batch rebuild
// ---------------------------------------------------------------------------

/// Ingests both KBs in an interleaved order and returns (collection, union
/// of all delta pairs as IRI pairs).
std::pair<IncrementalCollection, std::set<IriPair>> IngestInterleaved(
    const OnlineBlockingOptions& blocking) {
  IncrementalCollection inc;
  IncrementalBlockIndex index(blocking);
  const uint32_t kb_a = inc.EnsureKb("kbA");
  const uint32_t kb_b = inc.EnsureKb("kbB");
  const auto ea = GroupBySubject(Parse(kKbA));
  const auto eb = GroupBySubject(Parse(kKbB));

  std::vector<std::pair<uint32_t, const std::vector<Triple>*>> order;
  for (size_t i = 0; i < std::max(ea.size(), eb.size()); ++i) {
    if (i < eb.size()) order.push_back({kb_b, &eb[i]});
    if (i < ea.size()) order.push_back({kb_a, &ea[i]});
  }

  std::set<IriPair> emitted;
  std::vector<DeltaPair> delta;
  for (const auto& [kb, triples] : order) {
    auto id = inc.Ingest(kb, *triples);
    EXPECT_TRUE(id.ok()) << id.status();
    delta.clear();
    index.AddEntity(inc.collection(), *id, delta);
    for (const DeltaPair& d : delta) {
      const bool inserted =
          emitted.insert(MakeIriPair(inc.collection(), d.a, d.b)).second;
      EXPECT_TRUE(inserted) << "pair emitted twice";
    }
  }
  return {std::move(inc), std::move(emitted)};
}

TEST(IncrementalBlockIndexTest, TokenParityWithBatchRebuild) {
  OnlineBlockingOptions blocking;
  blocking.token.max_df_fraction = 1.0;  // caps off: exact parity regime
  blocking.mode = ResolutionMode::kCleanClean;
  auto [inc, emitted] = IngestInterleaved(blocking);

  // Batch reference over a batch-built collection of the same data.
  EntityCollection batch;
  ASSERT_TRUE(batch.AddKnowledgeBase("kbA", Parse(kKbA)).ok());
  ASSERT_TRUE(batch.AddKnowledgeBase("kbB", Parse(kKbB)).ok());
  ASSERT_TRUE(batch.Finalize().ok());
  TokenBlocking::Options topts;
  topts.max_df_fraction = 1.0;
  const std::set<IriPair> expected =
      BatchPairs(batch, TokenBlocking(topts), ResolutionMode::kCleanClean);

  EXPECT_EQ(emitted, expected);
  EXPECT_FALSE(expected.empty());
  // Sanity: the crete/crete-island pair must be among them.
  EXPECT_TRUE(expected.count({"http://a.org/r/crete", "http://b.org/p/crete"}));
}

TEST(IncrementalBlockIndexTest, TokenPlusPisParityWithBatchRebuild) {
  OnlineBlockingOptions blocking;
  blocking.token.max_df_fraction = 1.0;
  blocking.use_pis_keys = true;
  blocking.pis.max_block_size = 1u << 20;  // cap off
  blocking.mode = ResolutionMode::kCleanClean;
  auto [inc, emitted] = IngestInterleaved(blocking);

  EntityCollection batch;
  ASSERT_TRUE(batch.AddKnowledgeBase("kbA", Parse(kKbA)).ok());
  ASSERT_TRUE(batch.AddKnowledgeBase("kbB", Parse(kKbB)).ok());
  ASSERT_TRUE(batch.Finalize().ok());
  TokenBlocking::Options topts;
  topts.max_df_fraction = 1.0;
  PisBlocking::Options popts;
  popts.max_block_size = 1u << 20;
  std::vector<std::unique_ptr<BlockingMethod>> methods;
  methods.push_back(std::make_unique<TokenBlocking>(topts));
  methods.push_back(std::make_unique<PisBlocking>(popts));
  const std::set<IriPair> expected =
      BatchPairs(batch, CompositeBlocking(std::move(methods)),
                 ResolutionMode::kCleanClean);

  EXPECT_EQ(emitted, expected);
  // PIS must contribute: heraklion/phaistos share IRI suffixes across KBs.
  EXPECT_TRUE(
      emitted.count({"http://a.org/r/phaistos", "http://b.org/p/phaistos"}));
}

TEST(IncrementalBlockIndexTest, GeneratedCloudParity) {
  // Realistic data: a small synthetic cloud ingested one entity at a time
  // must produce exactly the candidate set of a batch rebuild over the
  // final (incrementally built) collection.
  datagen::LodCloudConfig cfg;
  cfg.seed = 20260726;
  cfg.num_real_entities = 120;
  cfg.num_kbs = 3;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());

  OnlineBlockingOptions blocking;
  blocking.token.max_df_fraction = 1.0;
  blocking.use_pis_keys = true;
  blocking.pis.max_block_size = 1u << 20;
  blocking.mode = ResolutionMode::kCleanClean;

  IncrementalCollection inc;
  IncrementalBlockIndex index(blocking);
  std::set<uint64_t> emitted;
  std::vector<DeltaPair> delta;
  for (const datagen::GeneratedKb& kb : cloud->kbs) {
    const uint32_t kb_id = inc.EnsureKb(kb.name);
    for (const auto& entity : GroupBySubject(kb.triples)) {
      auto id = inc.Ingest(kb_id, entity);
      ASSERT_TRUE(id.ok()) << id.status();
      delta.clear();
      index.AddEntity(inc.collection(), *id, delta);
      for (const DeltaPair& d : delta) {
        EXPECT_TRUE(emitted.insert(PairKey(d.a, d.b)).second);
      }
    }
  }

  TokenBlocking::Options topts;
  topts.max_df_fraction = 1.0;
  PisBlocking::Options popts;
  popts.max_block_size = 1u << 20;
  std::vector<std::unique_ptr<BlockingMethod>> methods;
  methods.push_back(std::make_unique<TokenBlocking>(topts));
  methods.push_back(std::make_unique<PisBlocking>(popts));
  BlockCollection blocks =
      CompositeBlocking(std::move(methods)).Build(inc.collection());
  std::set<uint64_t> expected;
  for (const Comparison& cmp : blocks.DistinctComparisons(
           inc.collection(), ResolutionMode::kCleanClean)) {
    expected.insert(PairKey(cmp.a, cmp.b));
  }

  EXPECT_GT(expected.size(), 100u);  // non-trivial candidate set
  EXPECT_EQ(emitted, expected);
}

TEST(IncrementalBlockIndexTest, CapWindowPairsRecoveredWhenCapLifts) {
  // The df cap is evaluated against the CURRENT collection size, so a
  // posting can be temporarily over-cap while the collection is small.
  // The watermark must recover the skipped pairs at the next live
  // insertion instead of losing them forever.
  OnlineBlockingOptions blocking;
  blocking.token.max_df_fraction = 0.5;
  blocking.mode = ResolutionMode::kCleanClean;

  IncrementalCollection inc;
  IncrementalBlockIndex index(blocking);
  const uint32_t kb0 = inc.EnsureKb("kb0");
  const uint32_t kb1 = inc.EnsureKb("kb1");

  // (kb, iri-suffix, value). "zeta" is the shared token; at insertions 2
  // and 5 the collection is small enough that cap < posting size, so those
  // arrivals emit nothing; insertion 9 is within cap and must catch up.
  const std::vector<std::tuple<uint32_t, std::string, std::string>> feed = {
      {kb0, "a0", "zeta alpha0"}, {kb1, "b0", "zeta beta0"},
      {kb0, "a1", "filler1"},     {kb1, "b1", "filler2"},
      {kb1, "b2", "zeta gamma0"}, {kb0, "a2", "filler3"},
      {kb1, "b3", "filler4"},     {kb0, "a3", "filler5"},
      {kb0, "a4", "zeta delta0"},
  };

  std::set<IriPair> emitted;
  std::vector<DeltaPair> delta;
  for (const auto& [kb, suffix, value] : feed) {
    const std::string doc = "<http://" + std::to_string(kb) + ".org/" +
                            suffix + "> <http://v/p> \"" + value + "\" .\n";
    auto id = inc.Ingest(kb, Parse(doc));
    ASSERT_TRUE(id.ok()) << id.status();
    delta.clear();
    index.AddEntity(inc.collection(), *id, delta);
    for (const DeltaPair& d : delta) {
      emitted.insert(MakeIriPair(inc.collection(), d.a, d.b));
    }
  }

  // All four cross-KB "zeta" pairs, including the ones whose arrivals fell
  // inside the capped window.
  const std::set<IriPair> expected = {
      {"http://0.org/a0", "http://1.org/b0"},
      {"http://0.org/a0", "http://1.org/b2"},
      {"http://0.org/a4", "http://1.org/b0"},
      {"http://0.org/a4", "http://1.org/b2"},
  };
  EXPECT_EQ(emitted, expected);
}

// ---------------------------------------------------------------------------
// OnlineResolver: resumable budgets, Query, seeds
// ---------------------------------------------------------------------------

datagen::LodCloud SmallCloud() {
  datagen::LodCloudConfig cfg;
  cfg.seed = 99;
  cfg.num_real_entities = 100;
  cfg.num_kbs = 3;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud.ok());
  return std::move(cloud).value();
}

EntityCollection WarmCollection(const datagen::LodCloud& cloud) {
  auto collection = cloud.BuildCollection();
  EXPECT_TRUE(collection.ok());
  return std::move(collection).value();
}

void IngestCloud(OnlineResolver& resolver, const datagen::LodCloud& cloud) {
  for (const datagen::GeneratedKb& kb : cloud.kbs) {
    const uint32_t kb_id = resolver.EnsureKb(kb.name);
    for (const auto& entity : GroupBySubject(kb.triples)) {
      ASSERT_TRUE(resolver.Ingest(kb_id, entity).ok());
    }
  }
}

TEST(OnlineResolverTest, ResumableBudgets) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;

  OnlineResolver split(options);
  IngestCloud(split, cloud);
  const OnlineStepResult s1 = split.ResolveBudget(40);
  const OnlineStepResult s2 = split.ResolveBudget(40);
  EXPECT_EQ(s1.comparisons, 40u);
  EXPECT_EQ(s2.comparisons, 40u);

  OnlineResolver whole(options);
  IngestCloud(whole, cloud);
  const OnlineStepResult w = whole.ResolveBudget(80);
  EXPECT_EQ(w.comparisons, 80u);

  // Split and whole schedules must be identical, match for match.
  ASSERT_EQ(s1.matches.size() + s2.matches.size(), w.matches.size());
  std::vector<MatchEvent> split_matches = s1.matches;
  split_matches.insert(split_matches.end(), s2.matches.begin(),
                       s2.matches.end());
  for (size_t i = 0; i < w.matches.size(); ++i) {
    EXPECT_EQ(split_matches[i].a, w.matches[i].a);
    EXPECT_EQ(split_matches[i].b, w.matches[i].b);
    EXPECT_EQ(split_matches[i].comparisons_done, w.matches[i].comparisons_done);
    EXPECT_DOUBLE_EQ(split_matches[i].similarity, w.matches[i].similarity);
  }
  EXPECT_EQ(split.run().comparisons_executed, whole.run().comparisons_executed);
}

TEST(OnlineResolverTest, BudgetExhaustionReported) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineResolver resolver{OnlineOptions{}};
  IngestCloud(resolver, cloud);
  const OnlineStepResult all = resolver.ResolveBudget(1u << 30);
  EXPECT_TRUE(all.exhausted);
  EXPECT_GT(all.comparisons, 0u);
  EXPECT_EQ(resolver.pending_comparisons(), 0u);
  // Nothing left: further budgets are free.
  const OnlineStepResult more = resolver.ResolveBudget(10);
  EXPECT_TRUE(more.exhausted);
  EXPECT_EQ(more.comparisons, 0u);
}

TEST(OnlineResolverTest, LoopCountersAccountForEveryPop) {
  const datagen::LodCloud cloud = SmallCloud();
  // A warm start resolves relations (streamed ingestion degrades forward
  // references), and a low threshold lets matches spread evidence.
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  OnlineResolver resolver(options, WarmCollection(cloud));
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
  const uint64_t discovered_before = resolver.discovered_pairs();

  OnlineStepResult total;
  while (!total.exhausted) {
    const OnlineStepResult step = resolver.ResolveBudget(50);
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
    total.exhausted = step.exhausted;
  }
  EXPECT_EQ(total.comparisons, resolver.run().comparisons_executed);
  EXPECT_EQ(total.pops, total.comparisons + total.requeues + total.skips);
  EXPECT_GT(total.evidence_updates, 0u);
  EXPECT_EQ(total.discovered_pairs,
            resolver.discovered_pairs() - discovered_before);
  EXPECT_EQ(pops.Value(), total.pops);
  EXPECT_EQ(requeues.Value(), total.requeues);
  EXPECT_EQ(skips.Value(), total.skips);
  EXPECT_EQ(comparisons.Value(), total.comparisons);
  EXPECT_EQ(evidence_updates.Value(), total.evidence_updates);
  EXPECT_EQ(discovered.Value(), total.discovered_pairs);
  EXPECT_EQ(discovered_matches.Value(), total.discovered_matches);
  EXPECT_EQ(update_fanout.Value(), total.update_fanout);
  EXPECT_GT(total.update_fanout, total.evidence_updates);
  EXPECT_GT(total.discovered_matches, 0u);
}

TEST(OnlineResolverTest, QueryDeterministicAndIdempotent) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  OnlineResolver resolver(options);
  IngestCloud(resolver, cloud);

  // Pick an entity with candidates.
  EntityId probe = kInvalidEntity;
  for (EntityId e = 0; e < resolver.collection().num_entities(); ++e) {
    if (!resolver.Query(e, 1).empty()) {
      probe = e;
      break;
    }
  }
  ASSERT_NE(probe, kInvalidEntity);

  const auto first = resolver.Query(probe, 5);
  const auto second = resolver.Query(probe, 5);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_DOUBLE_EQ(first[i].similarity, second[i].similarity);
    EXPECT_EQ(first[i].matched, second[i].matched);
  }
  // Ranked by similarity, ties by id.
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_GE(first[i - 1].similarity, first[i].similarity);
  }
  // Query executed the probe's pending comparisons.
  EXPECT_GT(resolver.run().comparisons_executed, 0u);
}

TEST(OnlineResolverTest, QueryAgreesWithResolution) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  OnlineResolver resolver(options);
  IngestCloud(resolver, cloud);
  resolver.ResolveBudget(1u << 30);

  // After full resolution, every match partner shows up as `matched` in the
  // partner's query results (clusters are transitive, so check SameCluster).
  ASSERT_FALSE(resolver.run().matches.empty());
  const MatchEvent m = resolver.run().matches.front();
  const auto candidates = resolver.Query(m.a, 1000);
  bool found = false;
  for (const QueryCandidate& c : candidates) {
    if (c.id == m.b) {
      found = true;
      EXPECT_TRUE(c.matched);
    }
  }
  EXPECT_TRUE(found);
}

TEST(OnlineResolverTest, SameAsSeedsResolveAtZeroCost) {
  OnlineOptions options;
  options.use_same_as_seeds = true;
  OnlineResolver resolver(options);
  const uint32_t kb_b = resolver.EnsureKb("kbB");
  for (const auto& entity : GroupBySubject(Parse(kKbB))) {
    ASSERT_TRUE(resolver.Ingest(kb_b, entity).ok());
  }
  const uint32_t kb_a = resolver.EnsureKb("kbA");
  for (const auto& entity : GroupBySubject(Parse(kKbA))) {
    ASSERT_TRUE(resolver.Ingest(kb_a, entity).ok());
  }
  const EntityId a = resolver.collection().FindByIri("http://a.org/r/heraklion");
  const EntityId b = resolver.collection().FindByIri("http://b.org/p/heraklion");
  ASSERT_NE(a, kInvalidEntity);
  ASSERT_NE(b, kInvalidEntity);
  EXPECT_TRUE(resolver.state().SameCluster(a, b));
  EXPECT_EQ(resolver.run().comparisons_executed, 0u);
}

TEST(OnlineResolverTest, DynamicNeighborsFeedRelationshipBenefit) {
  // Without a frozen NeighborGraph, the engine's ResolutionState must read
  // neighbors from the online source's growable adjacency so
  // relationship-aware benefit models work online.
  const char* kb0_doc = R"(
<http://x/na> <http://v/name> "north annex" .
<http://x/a> <http://v/name> "alpha core" .
<http://x/a> <http://v/near> <http://x/na> .
)";
  const char* kb1_doc = R"(
<http://y/nb> <http://v/label> "north annex two" .
<http://y/b> <http://v/label> "alpha kernel" .
<http://y/b> <http://v/near> <http://y/nb> .
)";
  OnlineResolver resolver{OnlineOptions{}};
  const uint32_t kb0 = resolver.EnsureKb("kb0");
  for (const auto& e : GroupBySubject(Parse(kb0_doc))) {
    ASSERT_TRUE(resolver.Ingest(kb0, e).ok());
  }
  const uint32_t kb1 = resolver.EnsureKb("kb1");
  for (const auto& e : GroupBySubject(Parse(kb1_doc))) {
    ASSERT_TRUE(resolver.Ingest(kb1, e).ok());
  }
  const EntityCollection& c = resolver.collection();
  const EntityId a = c.FindByIri("http://x/a");
  const EntityId na = c.FindByIri("http://x/na");
  const EntityId b = c.FindByIri("http://y/b");
  const EntityId nb = c.FindByIri("http://y/nb");

  ResolutionState& state = resolver.state();
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(a, b, 16), 0.0);
  state.RecordMatch(na, nb);
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(a, b, 16), 1.0);
  EXPECT_EQ(state.MatchedNeighborPairs(a, b, 16), 1u);
}

TEST(OnlineResolverTest, WarmStartReproducesBatchCandidateSet) {
  const datagen::LodCloud cloud = SmallCloud();
  auto batch = cloud.BuildCollection();
  ASSERT_TRUE(batch.ok());

  // Batch reference over the same collection the warm engine adopts. Caps
  // off — the incremental df cap is evaluated against the collection size
  // at each insertion, not the final size.
  TokenBlocking::Options topts;
  topts.max_df_fraction = 1.0;
  BlockCollection blocks = TokenBlocking(topts).Build(*batch);
  const size_t expected =
      blocks.DistinctComparisons(*batch, ResolutionMode::kCleanClean).size();

  OnlineOptions options;
  options.matcher.threshold = 0.3;
  options.blocking.token.max_df_fraction = 1.0;
  OnlineResolver warm(options, std::move(batch).value());

  EXPECT_GT(expected, 0u);
  EXPECT_EQ(warm.candidate_pairs_created(), expected);
  EXPECT_EQ(warm.pending_comparisons(), expected);

  // Cold entity-at-a-time ingestion classifies forward intra-KB references
  // as attribute tokens (documented append-only semantics), so its
  // candidate set is a superset of the batch one.
  OnlineResolver cold(options);
  IngestCloud(cold, cloud);
  EXPECT_EQ(cold.collection().num_entities(), warm.collection().num_entities());
  EXPECT_GE(cold.candidate_pairs_created(), expected);
}

// ---------------------------------------------------------------------------
// OnlineResolver checkpoint / restore (mirrors session_test.cc)
// ---------------------------------------------------------------------------

void ExpectSameMatches(const std::vector<MatchEvent>& a,
                       const std::vector<MatchEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << "match " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "match " << i;
    EXPECT_EQ(a[i].comparisons_done, b[i].comparisons_done) << "match " << i;
    EXPECT_EQ(std::memcmp(&a[i].similarity, &b[i].similarity,
                          sizeof(double)),
              0)
        << "match " << i << " similarity bits differ";
  }
}

TEST(OnlineResolverTest, SaveRestoreContinuesByteIdentically) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;

  // Uninterrupted reference run.
  OnlineResolver whole(options, WarmCollection(cloud));
  whole.ResolveBudget(300);
  whole.ResolveBudget(1u << 30);
  ASSERT_GT(whole.run().matches.size(), 0u);

  // Interrupted run: 300 comparisons, save, restore in a "new process",
  // finish. The full match sequence must carry identical bytes.
  OnlineResolver first(options, WarmCollection(cloud));
  first.ResolveBudget(300);
  std::stringstream state;
  ASSERT_TRUE(first.SaveState(state).ok());

  auto restored =
      OnlineResolver::Restore(options, WarmCollection(cloud), state);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->run().comparisons_executed, 300u);
  EXPECT_EQ((*restored)->pending_comparisons(),
            first.pending_comparisons());
  (*restored)->ResolveBudget(1u << 30);

  ExpectSameMatches(whole.run().matches, (*restored)->run().matches);
  EXPECT_EQ(whole.run().comparisons_executed,
            (*restored)->run().comparisons_executed);
  EXPECT_EQ(whole.discovered_pairs(), (*restored)->discovered_pairs());
  EXPECT_EQ(whole.evidence_assisted_matches(),
            (*restored)->evidence_assisted_matches());
}

TEST(OnlineResolverTest, RestoreSupportsIngestAndQuery) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  const std::vector<Triple> extra = Parse(
      "<http://x.org/new> <http://x.org/v/name> \"Knossos bronze palace\" "
      ".\n");

  // Reference: never interrupted; ingest mid-run.
  OnlineResolver whole(options, WarmCollection(cloud));
  whole.ResolveBudget(200);
  const uint32_t whole_kb = whole.EnsureKb("extra");
  ASSERT_TRUE(whole.Ingest(whole_kb, extra).ok());
  whole.ResolveBudget(1u << 30);

  // Interrupted at the same point, then the same ingest after restore.
  OnlineResolver first(options, WarmCollection(cloud));
  first.ResolveBudget(200);
  std::stringstream state;
  ASSERT_TRUE(first.SaveState(state).ok());
  auto restored =
      OnlineResolver::Restore(options, WarmCollection(cloud), state);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const uint32_t restored_kb = (*restored)->EnsureKb("extra");
  auto id = (*restored)->Ingest(restored_kb, extra);
  ASSERT_TRUE(id.ok());
  (*restored)->ResolveBudget(1u << 30);

  ExpectSameMatches(whole.run().matches, (*restored)->run().matches);

  // Query over the restored engine matches the uninterrupted one.
  const auto whole_q = whole.Query(*id, 5);
  const auto restored_q = (*restored)->Query(*id, 5);
  ASSERT_EQ(whole_q.size(), restored_q.size());
  for (size_t i = 0; i < whole_q.size(); ++i) {
    EXPECT_EQ(whole_q[i].id, restored_q[i].id);
    EXPECT_EQ(std::memcmp(&whole_q[i].similarity, &restored_q[i].similarity,
                          sizeof(double)),
              0);
    EXPECT_EQ(whole_q[i].matched, restored_q[i].matched);
  }
}

TEST(OnlineResolverTest, RestorePreservesSameAsSeedCursor) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  options.use_same_as_seeds = true;

  OnlineResolver whole(options, WarmCollection(cloud));
  whole.ResolveBudget(1u << 30);

  OnlineResolver first(options, WarmCollection(cloud));
  first.ResolveBudget(150);
  std::stringstream state;
  ASSERT_TRUE(first.SaveState(state).ok());
  auto restored =
      OnlineResolver::Restore(options, WarmCollection(cloud), state);
  ASSERT_TRUE(restored.ok()) << restored.status();
  (*restored)->ResolveBudget(1u << 30);
  ExpectSameMatches(whole.run().matches, (*restored)->run().matches);
}

// The pair table and live list of an engine state (OnlineResolver::
// SaveState), split out so a test can rewrite them. They sit right before a
// tail whose length the engine's public record fixes: the push counter, the
// cluster-merge log (one merge per match without sameAs seeds), the run
// record, and three trailing counters.
struct SavedPairs {
  struct Row {
    uint64_t pair;
    double likelihood;
    double evidence;
    uint8_t executed;
  };
  std::string head;
  std::vector<Row> rows;
  std::vector<std::pair<uint64_t, double>> live;
  std::string tail;

  static SavedPairs Split(const std::string& bytes,
                          const OnlineResolver& engine) {
    const auto u64_at = [&bytes](size_t at) {
      uint64_t v = 0;
      for (int i = 7; i >= 0; --i) {
        v = (v << 8) | static_cast<uint8_t>(bytes[at + i]);
      }
      return v;
    };
    const size_t matches = engine.run().matches.size();
    const size_t tail_size = 8 + (8 + 8 * matches) + (16 + 24 * matches) + 24;
    const size_t live_at =
        bytes.size() - tail_size - 8 - 16 * engine.pending_comparisons();
    SavedPairs out;
    out.tail = bytes.substr(bytes.size() - tail_size);
    {
      std::istringstream in(bytes.substr(live_at));
      uint64_t n = 0;
      EXPECT_TRUE(serde::ReadU64(in, n));
      out.live.resize(n);
      for (auto& [pair, priority] : out.live) {
        EXPECT_TRUE(serde::ReadU64(in, pair) &&
                    serde::ReadDouble(in, priority));
      }
    }
    // Walk back to the pair table's count: 25 bytes per row, ascending keys,
    // and every live pair among them.
    for (uint64_t n = out.live.size(); 8 + 25 * n <= live_at; ++n) {
      const size_t at = live_at - 8 - 25 * n;
      if (u64_at(at) != n) continue;
      std::istringstream in(bytes.substr(at + 8, 25 * n));
      std::vector<Row> rows(n);
      bool canonical = true;
      for (size_t i = 0; i < n && canonical; ++i) {
        Row& r = rows[i];
        canonical = serde::ReadU64(in, r.pair) &&
                    serde::ReadDouble(in, r.likelihood) &&
                    serde::ReadDouble(in, r.evidence) &&
                    serde::ReadU8(in, r.executed) && r.executed <= 1 &&
                    (i == 0 || rows[i - 1].pair < r.pair);
      }
      for (const auto& [pair, priority] : out.live) {
        canonical = canonical &&
                    std::binary_search(
                        rows.begin(), rows.end(), Row{pair, 0, 0, 0},
                        [](const Row& x, const Row& y) {
                          return x.pair < y.pair;
                        });
      }
      if (!canonical) continue;
      out.head = bytes.substr(0, at);
      out.rows = std::move(rows);
      return out;
    }
    ADD_FAILURE() << "pair table not found";
    return out;
  }

  std::string Join() const {
    std::ostringstream out;
    out << head;
    serde::WriteU64(out, rows.size());
    for (const Row& r : rows) {
      serde::WriteU64(out, r.pair);
      serde::WriteDouble(out, r.likelihood);
      serde::WriteDouble(out, r.evidence);
      serde::WriteU8(out, r.executed);
    }
    serde::WriteU64(out, live.size());
    for (const auto& [pair, priority] : live) {
      serde::WriteU64(out, pair);
      serde::WriteDouble(out, priority);
    }
    out << tail;
    return out.str();
  }
};

TEST(OnlineResolverTest, RestoreRejectsNonCanonicalSchedule) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  OnlineResolver engine(options, WarmCollection(cloud));
  engine.ResolveBudget(300);
  std::stringstream state;
  ASSERT_TRUE(engine.SaveState(state).ok());
  const std::string bytes = state.str();
  const SavedPairs saved = SavedPairs::Split(bytes, engine);
  ASSERT_EQ(saved.Join(), bytes);  // the split is exact
  ASSERT_GE(saved.live.size(), 2u);
  const auto executed = std::find_if(
      saved.rows.begin(), saved.rows.end(),
      [](const SavedPairs::Row& r) { return r.executed == 1; });
  ASSERT_NE(executed, saved.rows.end());
  const size_t executed_row = executed - saved.rows.begin();

  std::vector<std::pair<std::string, SavedPairs>> mutants;
  const auto mutant = [&](const std::string& name) -> SavedPairs& {
    mutants.emplace_back(name, saved);
    return mutants.back().second;
  };
  mutant("NaN live priority").live[0].second =
      std::numeric_limits<double>::quiet_NaN();
  mutant("infinite evidence").rows[0].evidence =
      std::numeric_limits<double>::infinity();
  {
    SavedPairs& m = mutant("two live keys swapped");
    std::swap(m.live[0], m.live[1]);
  }
  {
    SavedPairs& m = mutant("duplicated executed key");
    m.rows.insert(m.rows.begin() + executed_row + 1, m.rows[executed_row]);
  }
  {
    SavedPairs& m = mutant("live pair also executed");
    for (SavedPairs::Row& r : m.rows) {
      if (r.pair == m.live[0].first) r.executed = 1;
    }
  }
  for (const auto& [name, m] : mutants) {
    std::istringstream in(m.Join());
    auto restored = OnlineResolver::Restore(options, in);
    ASSERT_FALSE(restored.ok()) << name;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError) << name;
  }
  std::istringstream in(bytes);
  EXPECT_TRUE(OnlineResolver::Restore(options, in).ok());
}

TEST(OnlineResolverTest, RestoreRejectsMismatchesAndTruncation) {
  const datagen::LodCloud cloud = SmallCloud();
  OnlineOptions options;
  options.matcher.threshold = 0.3;
  OnlineResolver engine(options, WarmCollection(cloud));
  engine.ResolveBudget(100);
  std::stringstream state;
  ASSERT_TRUE(engine.SaveState(state).ok());
  const std::string bytes = state.str();

  // Different collection.
  datagen::LodCloudConfig other_cfg;
  other_cfg.seed = 7;
  other_cfg.num_real_entities = 60;
  other_cfg.num_kbs = 2;
  auto other_cloud = datagen::GenerateLodCloud(other_cfg);
  ASSERT_TRUE(other_cloud.ok());
  {
    std::istringstream in(bytes);
    auto restored =
        OnlineResolver::Restore(options, WarmCollection(*other_cloud), in);
    EXPECT_FALSE(restored.ok());
  }
  // Different options.
  {
    OnlineOptions other = options;
    other.matcher.threshold = 0.6;
    std::istringstream in(bytes);
    auto restored = OnlineResolver::Restore(other, WarmCollection(cloud), in);
    EXPECT_FALSE(restored.ok());
  }
  // Truncations anywhere in the stream must be rejected, never crash.
  for (const double fraction : {0.1, 0.5, 0.9, 0.999}) {
    std::istringstream in(
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction)));
    auto restored = OnlineResolver::Restore(options, WarmCollection(cloud),
                                            in);
    EXPECT_FALSE(restored.ok()) << "fraction " << fraction;
  }
}

}  // namespace
}  // namespace minoan
