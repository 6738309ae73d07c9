// Unit tests for the RDF substrate: term model, N-Triples parsing/writing,
// IRI decomposition.

#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "scratch_dir.h"
#include "rdf/iri.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"

namespace minoan {
namespace rdf {
namespace {

// ---------------------------------------------------------------------------
// Term serialization
// ---------------------------------------------------------------------------

TEST(TermTest, IriSerialization) {
  EXPECT_EQ(Term::Iri("http://x.org/a").ToNTriples(), "<http://x.org/a>");
}

TEST(TermTest, BlankSerialization) {
  EXPECT_EQ(Term::Blank("b42").ToNTriples(), "_:b42");
}

TEST(TermTest, PlainLiteralSerialization) {
  EXPECT_EQ(Term::Literal("hello").ToNTriples(), "\"hello\"");
}

TEST(TermTest, LangLiteralSerialization) {
  EXPECT_EQ(Term::Literal("γεια", "", "el").ToNTriples(), "\"γεια\"@el");
}

TEST(TermTest, TypedLiteralSerialization) {
  EXPECT_EQ(Term::Literal("5", std::string(kXsdInteger)).ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(TermTest, XsdStringDatatypeElided) {
  EXPECT_EQ(Term::Literal("x", std::string(kXsdString)).ToNTriples(),
            "\"x\"");
}

TEST(TermTest, EscapingInLiterals) {
  EXPECT_EQ(Term::Literal("a\"b\\c\nd").ToNTriples(),
            "\"a\\\"b\\\\c\\nd\"");
}

TEST(TermTest, EqualityIncludesKindAndTags) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_FALSE(Term::Iri("x") == Term::Blank("x"));
  EXPECT_FALSE(Term::Literal("v", "", "en") == Term::Literal("v", "", "de"));
}

TEST(TripleTest, LineSerialization) {
  Triple t{Term::Iri("http://x/s"), Term::Iri("http://x/p"),
           Term::Literal("o")};
  EXPECT_EQ(t.ToNTriples(), "<http://x/s> <http://x/p> \"o\" .");
}

// ---------------------------------------------------------------------------
// Parser: happy paths
// ---------------------------------------------------------------------------

Triple ParseOne(const std::string& line) {
  NTriplesParser parser;
  Triple t;
  bool is_triple = false;
  const Status st = parser.ParseLine(line, t, is_triple);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_TRUE(is_triple);
  return t;
}

TEST(ParserTest, BasicTriple) {
  const Triple t =
      ParseOne("<http://x/s> <http://x/p> <http://x/o> .");
  EXPECT_EQ(t.subject.lexical, "http://x/s");
  EXPECT_EQ(t.predicate.lexical, "http://x/p");
  EXPECT_EQ(t.object.lexical, "http://x/o");
  EXPECT_TRUE(t.object.is_iri());
}

TEST(ParserTest, LiteralObject) {
  const Triple t = ParseOne("<http://x/s> <http://x/p> \"Minoan ER\" .");
  EXPECT_TRUE(t.object.is_literal());
  EXPECT_EQ(t.object.lexical, "Minoan ER");
}

TEST(ParserTest, LangTaggedLiteral) {
  const Triple t = ParseOne("<http://x/s> <http://x/p> \"Crete\"@en-GB .");
  EXPECT_EQ(t.object.language, "en-GB");
}

TEST(ParserTest, TypedLiteral) {
  const Triple t = ParseOne(
      "<http://x/s> <http://x/p> "
      "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
  EXPECT_EQ(t.object.datatype, "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(ParserTest, BlankSubjectAndObject) {
  const Triple t = ParseOne("_:a <http://x/p> _:b1 .");
  EXPECT_TRUE(t.subject.is_blank());
  EXPECT_EQ(t.subject.lexical, "a");
  EXPECT_TRUE(t.object.is_blank());
  EXPECT_EQ(t.object.lexical, "b1");
}

TEST(ParserTest, BlankObjectDirectlyBeforeTerminator) {
  const Triple t = ParseOne("_:a <http://x/p> _:b1.");
  EXPECT_EQ(t.object.lexical, "b1");
}

TEST(ParserTest, EscapeSequences) {
  const Triple t =
      ParseOne(R"(<http://x/s> <http://x/p> "line\nbreak\t\"q\"" .)");
  EXPECT_EQ(t.object.lexical, "line\nbreak\t\"q\"");
}

TEST(ParserTest, UnicodeEscapes) {
  const Triple t = ParseOne(R"(<http://x/s> <http://x/p> "Aé" .)");
  EXPECT_EQ(t.object.lexical, "Aé");
}

TEST(ParserTest, LongUnicodeEscape) {
  const Triple t = ParseOne(R"(<http://x/s> <http://x/p> "\U0001F600" .)");
  EXPECT_EQ(t.object.lexical, "\xF0\x9F\x98\x80");  // emoji, 4 UTF-8 bytes
}

TEST(ParserTest, CommentsAndBlanksSkipped) {
  NTriplesParser parser;
  Triple t;
  bool is_triple = true;
  EXPECT_TRUE(parser.ParseLine("# a comment", t, is_triple).ok());
  EXPECT_FALSE(is_triple);
  EXPECT_TRUE(parser.ParseLine("   ", t, is_triple).ok());
  EXPECT_FALSE(is_triple);
  EXPECT_TRUE(parser.ParseLine("", t, is_triple).ok());
  EXPECT_FALSE(is_triple);
}

TEST(ParserTest, TrailingCommentAfterDot) {
  const Triple t = ParseOne("<http://x/s> <http://x/p> \"v\" . # trailing");
  EXPECT_EQ(t.object.lexical, "v");
}

TEST(ParserTest, ExtraWhitespaceTolerated) {
  const Triple t = ParseOne("  <http://x/s>\t<http://x/p>   \"v\"  .  ");
  EXPECT_EQ(t.object.lexical, "v");
}

// ---------------------------------------------------------------------------
// Parser: error paths
// ---------------------------------------------------------------------------

Status ParseErr(const std::string& line) {
  NTriplesParser parser;
  Triple t;
  bool is_triple = false;
  return parser.ParseLine(line, t, is_triple);
}

TEST(ParserErrorTest, MissingTerminator) {
  EXPECT_FALSE(ParseErr("<http://x/s> <http://x/p> \"v\"").ok());
}

TEST(ParserErrorTest, LiteralSubjectRejected) {
  EXPECT_FALSE(ParseErr("\"v\" <http://x/p> \"o\" .").ok());
}

TEST(ParserErrorTest, NonIriPredicateRejected) {
  EXPECT_FALSE(ParseErr("<http://x/s> \"p\" \"o\" .").ok());
  EXPECT_FALSE(ParseErr("<http://x/s> _:p \"o\" .").ok());
}

TEST(ParserErrorTest, UnterminatedIri) {
  EXPECT_FALSE(ParseErr("<http://x/s <http://x/p> <http://x/o> .").ok());
}

TEST(ParserErrorTest, UnterminatedLiteral) {
  EXPECT_FALSE(ParseErr("<http://x/s> <http://x/p> \"open .").ok());
}

TEST(ParserErrorTest, BadEscape) {
  EXPECT_FALSE(ParseErr(R"(<s://a/s> <s://a/p> "bad\q" .)").ok());
  EXPECT_FALSE(ParseErr(R"(<s://a/s> <s://a/p> "bad\u12g4" .)").ok());
}

TEST(ParserErrorTest, EmptyIriRejected) {
  EXPECT_FALSE(ParseErr("<> <http://x/p> \"v\" .").ok());
}

TEST(ParserErrorTest, SpaceInsideIriRejected) {
  EXPECT_FALSE(ParseErr("<http://x/a b> <http://x/p> \"v\" .").ok());
}

TEST(ParserErrorTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseErr("<http://x/s> <http://x/p> \"v\" . garbage").ok());
}

TEST(ParserErrorTest, ErrorsMentionColumn) {
  const Status st = ParseErr("<http://x/s> <http://x/p> \"v\"");
  EXPECT_NE(st.message().find("column"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stream parsing: strict vs lenient
// ---------------------------------------------------------------------------

constexpr const char* kMixedDoc =
    "# header comment\n"
    "<http://x/s1> <http://x/p> \"a\" .\n"
    "THIS LINE IS GARBAGE\n"
    "<http://x/s2> <http://x/p> \"b\" .\n"
    "\n"
    "<http://x/s3> <http://x/p> \"c\" .\n";

TEST(StreamTest, LenientSkipsAndCounts) {
  NTriplesParser parser;  // lenient by default
  ParseStats stats;
  auto result = parser.ParseString(kMixedDoc, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.comments, 2u);  // comment + empty line
  EXPECT_EQ(stats.lines, 6u);
}

TEST(StreamTest, StrictAbortsWithLineNumber) {
  NTriplesOptions opts;
  opts.strict = true;
  NTriplesParser parser(opts);
  auto result = parser.ParseString(kMixedDoc);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
}

TEST(StreamTest, CrLfLineEndings) {
  NTriplesParser parser;
  auto result = parser.ParseString(
      "<http://x/s> <http://x/p> \"v\" .\r\n"
      "<http://x/s2> <http://x/p> \"w\" .\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(StreamTest, FileRoundTrip) {
  const testutil::ScratchDir scratch("rdf-roundtrip");
  const std::string path = scratch.str() + "/roundtrip.nt";
  std::vector<Triple> original = {
      {Term::Iri("http://x/s"), Term::Iri("http://x/p"),
       Term::Literal("v w", "", "en")},
      {Term::Iri("http://x/s"), Term::Iri("http://x/q"),
       Term::Literal("5", std::string(kXsdInteger))},
      {Term::Blank("n1"), Term::Iri("http://x/p"), Term::Iri("http://x/o")},
      {Term::Iri("http://x/esc"), Term::Iri("http://x/p"),
       Term::Literal("line\nbreak \"quoted\" back\\slash")},
  };
  {
    std::ofstream out(path);
    NTriplesWriter writer(out);
    writer.WriteAll(original);
  }
  NTriplesParser parser;
  auto result = parser.ParseFile(path);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*result)[i], original[i]) << "triple " << i;
  }
}

TEST(StreamTest, MissingFileReportsIoError) {
  NTriplesParser parser;
  auto result = parser.ParseFile("/nonexistent/path/x.nt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// IRI utilities
// ---------------------------------------------------------------------------

TEST(IriTest, AbsoluteDetection) {
  EXPECT_TRUE(LooksLikeAbsoluteIri("http://x.org/a"));
  EXPECT_TRUE(LooksLikeAbsoluteIri("urn+custom://x/a"));
  EXPECT_FALSE(LooksLikeAbsoluteIri("not an iri"));
  EXPECT_FALSE(LooksLikeAbsoluteIri("://missing-scheme"));
  EXPECT_FALSE(LooksLikeAbsoluteIri("rel/path"));
}

TEST(IriTest, NamespaceAndLocalName) {
  EXPECT_EQ(IriNamespace("http://x.org/v#name"), "http://x.org/v#");
  EXPECT_EQ(IriLocalName("http://x.org/v#name"), "name");
  EXPECT_EQ(IriNamespace("http://x.org/v/name"), "http://x.org/v/");
  EXPECT_EQ(IriLocalName("http://x.org/v/name"), "name");
  EXPECT_EQ(IriLocalName("name-only"), "name-only");
}

TEST(IriTest, SplitBasicPath) {
  const IriParts p = SplitIri("http://dbpedia.org/resource/Heraklion");
  EXPECT_EQ(p.prefix, "http://dbpedia.org");
  EXPECT_EQ(p.infix, "/resource");
  EXPECT_EQ(p.suffix, "Heraklion");
}

TEST(IriTest, SplitFragment) {
  const IriParts p = SplitIri("http://x.org/data/item#frag");
  EXPECT_EQ(p.prefix, "http://x.org");
  EXPECT_EQ(p.infix, "/data/item");
  EXPECT_EQ(p.suffix, "frag");
}

TEST(IriTest, SplitNoPath) {
  const IriParts p = SplitIri("http://x.org");
  EXPECT_EQ(p.prefix, "http://x.org");
  EXPECT_EQ(p.infix, "");
  EXPECT_EQ(p.suffix, "");
}

TEST(IriTest, SplitDeepPath) {
  const IriParts p = SplitIri("http://x.org/a/b/c/d");
  EXPECT_EQ(p.prefix, "http://x.org");
  EXPECT_EQ(p.infix, "/a/b/c");
  EXPECT_EQ(p.suffix, "d");
}

TEST(IriTest, SplitRelativeFallsToSuffix) {
  const IriParts p = SplitIri("just-a-name");
  EXPECT_EQ(p.prefix, "");
  EXPECT_EQ(p.suffix, "just-a-name");
}

TEST(IriTest, SplitTrailingSlash) {
  const IriParts p = SplitIri("http://x.org/a/b/");
  EXPECT_EQ(p.suffix, "b");
}

}  // namespace
}  // namespace rdf
}  // namespace minoan
