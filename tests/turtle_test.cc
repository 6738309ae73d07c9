// Unit tests for the Turtle parser: directives, prefixed names, predicate
// and object lists, blank node property lists, literal shorthands, error
// paths, and equivalence with N-Triples for shared documents.

#include <fstream>

#include "gtest/gtest.h"
#include "scratch_dir.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"

namespace minoan {
namespace rdf {
namespace {

std::vector<Triple> Parse(const std::string& doc) {
  TurtleParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : std::vector<Triple>{};
}

Status ParseErr(const std::string& doc) {
  TurtleParser parser;
  auto result = parser.ParseString(doc);
  return result.ok() ? Status::Ok() : result.status();
}

TEST(TurtleTest, PlainTriple) {
  const auto triples = Parse("<http://x/s> <http://x/p> <http://x/o> .");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://x/s");
  EXPECT_EQ(triples[0].object.lexical, "http://x/o");
}

TEST(TurtleTest, PrefixDirective) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:crete ex:capital ex:heraklion .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/crete");
  EXPECT_EQ(triples[0].predicate.lexical, "http://example.org/capital");
}

TEST(TurtleTest, SparqlStyleDirectives) {
  const auto triples = Parse(R"(
PREFIX ex: <http://example.org/>
ex:a ex:b ex:c .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/a");
}

TEST(TurtleTest, EmptyPrefix) {
  const auto triples = Parse(R"(
@prefix : <http://default.org/> .
:a :b :c .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://default.org/a");
}

TEST(TurtleTest, BaseResolution) {
  const auto triples = Parse(R"(
@base <http://base.org/data/> .
<rel> <#frag> </abs> .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://base.org/data/rel");
  EXPECT_EQ(triples[0].predicate.lexical, "http://base.org/data/#frag");
  EXPECT_EQ(triples[0].object.lexical, "http://base.org/abs");
}

TEST(TurtleTest, AKeywordIsRdfType) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:knossos a ex:Palace .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].predicate.lexical, std::string(kRdfType));
}

TEST(TurtleTest, PredicateList) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p1 "a" ; ex:p2 "b" ; ex:p3 "c" .
)");
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[0].predicate.lexical, "http://example.org/p1");
  EXPECT_EQ(triples[2].object.lexical, "c");
  for (const Triple& t : triples) {
    EXPECT_EQ(t.subject.lexical, "http://example.org/s");
  }
}

TEST(TurtleTest, TrailingSemicolonAllowed) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p "a" ; .
)");
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TurtleTest, ObjectList) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p "a", "b", "c" .
)");
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[1].object.lexical, "b");
}

TEST(TurtleTest, LiteralForms) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:str "plain" ;
     ex:lang "bonjour"@fr ;
     ex:typed "5"^^xsd:byte ;
     ex:single 'apostrophes' .
)");
  ASSERT_EQ(triples.size(), 4u);
  EXPECT_EQ(triples[1].object.language, "fr");
  EXPECT_EQ(triples[2].object.datatype,
            "http://www.w3.org/2001/XMLSchema#byte");
  EXPECT_EQ(triples[3].object.lexical, "apostrophes");
}

TEST(TurtleTest, NumericAndBooleanShorthands) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:int 42 ; ex:neg -7 ; ex:dec 3.14 ; ex:exp 1.2e3 ; ex:flag true .
)");
  ASSERT_EQ(triples.size(), 5u);
  EXPECT_EQ(triples[0].object.lexical, "42");
  EXPECT_EQ(triples[0].object.datatype, std::string(kXsdInteger));
  EXPECT_EQ(triples[1].object.lexical, "-7");
  EXPECT_EQ(triples[2].object.datatype,
            "http://www.w3.org/2001/XMLSchema#decimal");
  EXPECT_EQ(triples[3].object.datatype,
            "http://www.w3.org/2001/XMLSchema#double");
  EXPECT_EQ(triples[4].object.lexical, "true");
}

TEST(TurtleTest, BlankNodeLabels) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
_:b1 ex:knows _:b2 .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_TRUE(triples[0].subject.is_blank());
  EXPECT_EQ(triples[0].subject.lexical, "b1");
  EXPECT_EQ(triples[0].object.lexical, "b2");
}

TEST(TurtleTest, AnonymousBlankNodeObject) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:address [ ex:city "heraklion" ; ex:zip "71201" ] .
)");
  // 1 outer triple + 2 inner ones on the anonymous node.
  ASSERT_EQ(triples.size(), 3u);
  // Inner triples come first (emitted while parsing the property list).
  EXPECT_TRUE(triples[0].subject.is_blank());
  EXPECT_EQ(triples[2].predicate.lexical, "http://example.org/address");
  EXPECT_EQ(triples[2].object.lexical, triples[0].subject.lexical);
}

TEST(TurtleTest, BlankNodeSubjectPropertyList) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
[ ex:p "v" ] .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_TRUE(triples[0].subject.is_blank());
}

TEST(TurtleTest, CommentsIgnored) {
  const auto triples = Parse(R"(
# leading comment
@prefix ex: <http://example.org/> . # trailing
ex:s ex:p "v" . # done
)");
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TurtleTest, DotInsidePrefixedLocalName) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:version1.2 ex:p "v" .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/version1.2");
}

TEST(TurtleTest, EscapedLocalName) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:a\~b ex:p "v" .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/a~b");
}

// --- error paths -----------------------------------------------------------

TEST(TurtleErrorTest, UndefinedPrefix) {
  const Status st = ParseErr("nope:a nope:b nope:c .");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("undefined prefix"), std::string::npos);
}

TEST(TurtleErrorTest, MissingDot) {
  EXPECT_FALSE(ParseErr("<http://x/s> <http://x/p> <http://x/o>").ok());
}

TEST(TurtleErrorTest, CollectionsRejectedWithClearMessage) {
  const Status st = ParseErr(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p ( "a" "b" ) .
)");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("collections"), std::string::npos);
}

TEST(TurtleErrorTest, TripleQuotesRejected) {
  const Status st = ParseErr(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p """long""" .
)");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("triple-quoted"), std::string::npos);
}

TEST(TurtleErrorTest, ErrorsCarryLineNumbers) {
  const Status st = ParseErr("\n\n<http://x/s> <http://x/p> .\n");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
}

// --- interop ---------------------------------------------------------------

TEST(TurtleInteropTest, MatchesNTriplesOnSharedSubset) {
  const std::string nt_doc =
      "<http://x/s> <http://x/p> \"value\"@en .\n"
      "<http://x/s> <http://x/q> <http://x/o> .\n";
  NTriplesParser nt;
  auto from_nt = nt.ParseString(nt_doc);
  TurtleParser ttl;
  auto from_ttl = ttl.ParseString(nt_doc);  // N-Triples is valid Turtle
  ASSERT_TRUE(from_nt.ok());
  ASSERT_TRUE(from_ttl.ok());
  ASSERT_EQ(from_nt->size(), from_ttl->size());
  for (size_t i = 0; i < from_nt->size(); ++i) {
    EXPECT_EQ((*from_nt)[i], (*from_ttl)[i]);
  }
}

TEST(TurtleInteropTest, LoadTriplesDispatchesByExtension) {
  const testutil::ScratchDir scratch("turtle-dispatch");
  const std::string dir = scratch.str();
  {
    std::ofstream out(dir + "/sample.ttl");
    out << "@prefix ex: <http://example.org/> .\nex:a ex:b ex:c .\n";
  }
  {
    std::ofstream out(dir + "/sample.nt");
    out << "<http://x/s> <http://x/p> \"v\" .\n";
  }
  auto ttl = LoadTriples(dir + "/sample.ttl");
  ASSERT_TRUE(ttl.ok());
  EXPECT_EQ(ttl->size(), 1u);
  auto nt = LoadTriples(dir + "/sample.nt");
  ASSERT_TRUE(nt.ok());
  EXPECT_EQ(nt->size(), 1u);
  EXPECT_FALSE(LoadTriples(dir + "/sample.xyz").ok());
}

}  // namespace
}  // namespace rdf
}  // namespace minoan
