// Robustness and failure-injection tests: random garbage into the parsers,
// degenerate collections into the pipeline. Nothing here may crash, hang,
// or violate an invariant.

#include <string>

#include "core/minoan_er.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "metablocking/meta_blocking.h"
#include "progressive/resolver.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "util/rng.h"

namespace minoan {
namespace {

std::string RandomBytes(Rng& rng, size_t length, bool printable) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (printable) {
      out += static_cast<char>(' ' + rng.Below(95));
    } else {
      out += static_cast<char>(rng.Below(256));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser fuzz-ish robustness
// ---------------------------------------------------------------------------

TEST(ParserRobustnessTest, LenientNTriplesSurvivesPrintableGarbage) {
  Rng rng(0xf00d);
  rdf::NTriplesParser parser;  // lenient
  std::string doc;
  for (int i = 0; i < 500; ++i) {
    doc += RandomBytes(rng, rng.Below(120), /*printable=*/true);
    doc += '\n';
  }
  rdf::ParseStats stats;
  auto result = parser.ParseString(doc, &stats);
  ASSERT_TRUE(result.ok());  // lenient mode never errors
  EXPECT_EQ(stats.lines, 500u);
  // Nearly everything should be skipped or comment; accepted lines (if any
  // random line forms a triple by chance) must be well-formed.
  for (const rdf::Triple& t : *result) {
    EXPECT_FALSE(t.predicate.lexical.empty());
  }
}

TEST(ParserRobustnessTest, LenientNTriplesSurvivesBinaryGarbage) {
  Rng rng(0xbeef);
  rdf::NTriplesParser parser;
  std::string doc;
  for (int i = 0; i < 200; ++i) {
    std::string line = RandomBytes(rng, rng.Below(80), /*printable=*/false);
    // Keep the line structure: no embedded newlines.
    for (char& c : line) {
      if (c == '\n' || c == '\r') c = '?';
    }
    doc += line;
    doc += '\n';
  }
  rdf::ParseStats stats;
  auto result = parser.ParseString(doc, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.lines, 200u);
}

TEST(ParserRobustnessTest, GarbageInterleavedWithValidLines) {
  Rng rng(0xcafe);
  rdf::NTriplesParser parser;
  std::string doc;
  uint64_t valid = 0;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 0) {
      doc += "<http://x/s" + std::to_string(i) + "> <http://x/p> \"v\" .\n";
      ++valid;
    } else {
      doc += RandomBytes(rng, rng.Below(60), true) + "\n";
    }
  }
  rdf::ParseStats stats;
  auto result = parser.ParseString(doc, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->size(), valid);  // every valid line recovered
}

TEST(ParserRobustnessTest, MaxLineLengthEnforced) {
  rdf::NTriplesOptions opts;
  opts.max_line_bytes = 64;
  opts.strict = true;
  rdf::NTriplesParser parser(opts);
  const std::string long_line = "<http://x/s> <http://x/p> \"" +
                                std::string(1000, 'a') + "\" .";
  rdf::Triple t;
  bool is_triple;
  EXPECT_FALSE(parser.ParseLine(long_line, t, is_triple).ok());
}

TEST(ParserRobustnessTest, TurtleGarbageErrorsWithoutCrash) {
  Rng rng(0xdead);
  rdf::TurtleParser parser;
  for (int i = 0; i < 100; ++i) {
    const std::string doc = RandomBytes(rng, 200, true);
    auto result = parser.ParseString(doc);
    // Either parses (unlikely) or reports a structured error.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    }
  }
}

TEST(ParserRobustnessTest, TurtleDeeplyNestedBlankNodes) {
  // 64 nesting levels; must not blow the stack or mis-count.
  std::string doc = "@prefix ex: <http://x/> .\nex:s ex:p ";
  for (int i = 0; i < 64; ++i) doc += "[ ex:q ";
  doc += "\"leaf\"";
  for (int i = 0; i < 64; ++i) doc += " ]";
  doc += " .\n";
  rdf::TurtleParser parser;
  auto result = parser.ParseString(doc);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 65u);
}

// ---------------------------------------------------------------------------
// Degenerate collections through the full pipeline
// ---------------------------------------------------------------------------

EntityCollection FromDoc(const std::string& doc, int kbs = 1) {
  rdf::NTriplesParser parser;
  EntityCollection c;
  for (int k = 0; k < kbs; ++k) {
    auto triples = parser.ParseString(doc);
    EXPECT_TRUE(triples.ok());
    EXPECT_TRUE(c.AddKnowledgeBase("kb" + std::to_string(k), *triples).ok());
  }
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

TEST(PipelineRobustnessTest, EmptyCollection) {
  EntityCollection c = FromDoc("");
  MinoanEr er;
  auto report = er.Run(c);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->progressive.run.matches.size(), 0u);
}

TEST(PipelineRobustnessTest, SingleEntity) {
  EntityCollection c = FromDoc("<http://x/only> <http://x/p> \"alone\" .");
  MinoanEr er;
  auto report = er.Run(c);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->progressive.run.matches.size(), 0u);
}

TEST(PipelineRobustnessTest, IdenticalKbs) {
  // Two byte-identical KBs: every description should match its twin.
  const std::string doc = R"(
<http://x/a> <http://x/name> "alpha beta gamma" .
<http://x/b> <http://x/name> "delta epsilon zeta" .
<http://x/c> <http://x/name> "eta theta iota" .
)";
  EntityCollection c = FromDoc(doc, /*kbs=*/2);
  WorkflowOptions opts;
  opts.progressive.matcher.threshold = 0.5;
  MinoanEr er(opts);
  auto report = er.Run(c);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->progressive.run.matches.size(), 3u);
  for (const MatchEvent& m : report->progressive.run.matches) {
    EXPECT_NEAR(m.similarity, 1.0, 1e-9);
  }
}

TEST(PipelineRobustnessTest, EntitiesWithoutTokens) {
  // Values collapse to nothing after tokenization (min length 2).
  const std::string doc = R"(
<http://x/1> <http://x/p> "a" .
<http://x/2> <http://x/p> "b" .
)";
  EntityCollection c = FromDoc(doc);
  MinoanEr er;
  auto report = er.Run(c);
  ASSERT_TRUE(report.ok());  // nothing to block on; must not crash
}

TEST(PipelineRobustnessTest, SelfReferentialSameAsIgnored) {
  const std::string doc = R"(
<http://x/1> <http://www.w3.org/2002/07/owl#sameAs> <http://x/1> .
<http://x/1> <http://x/p> "some value tokens" .
)";
  EntityCollection c = FromDoc(doc);
  EXPECT_TRUE(c.same_as_links().empty());
}

TEST(PipelineRobustnessTest, AllEntitiesInOneKbCleanClean) {
  // Clean-clean over a single KB: zero candidate comparisons, no crash.
  const std::string doc = R"(
<http://x/1> <http://x/p> "alpha beta" .
<http://x/2> <http://x/p> "alpha beta" .
)";
  EntityCollection c = FromDoc(doc);
  BlockCollection blocks = TokenBlocking().Build(c);
  const auto distinct =
      blocks.DistinctComparisons(c, ResolutionMode::kCleanClean);
  EXPECT_TRUE(distinct.empty());
  // Dirty mode sees the pair.
  EXPECT_EQ(blocks.DistinctComparisons(c, ResolutionMode::kDirty).size(), 1u);
}

TEST(ResolverRobustnessTest, EmptyCandidates) {
  EntityCollection c = FromDoc("<http://x/1> <http://x/p> \"token here\" .");
  NeighborGraph graph(c);
  SimilarityEvaluator evaluator(c);
  ProgressiveResolver resolver(c, graph, evaluator, ProgressiveOptions{});
  resolver.Begin({});
  resolver.Step(0);
  EXPECT_TRUE(resolver.exhausted());
  EXPECT_EQ(resolver.result().run.comparisons_executed, 0u);
  EXPECT_TRUE(resolver.result().run.matches.empty());
}

TEST(ResolverRobustnessTest, BudgetOfOne) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 701;
  cfg.num_real_entities = 100;
  cfg.num_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  BlockCollection blocks = TokenBlocking().Build(*c);
  auto candidates = MetaBlocking().Prune(blocks, *c);
  ASSERT_GT(candidates.size(), 1u);
  NeighborGraph graph(*c);
  SimilarityEvaluator evaluator(*c);
  ProgressiveOptions opts;
  opts.matcher.budget = 1;
  ProgressiveResolver resolver(*c, graph, evaluator, opts);
  resolver.Begin(candidates);
  resolver.Step(0);
  EXPECT_EQ(resolver.result().run.comparisons_executed, 1u);
}

}  // namespace
}  // namespace minoan
