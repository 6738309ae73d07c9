// Unit tests for the RDF substrate: term model, N-Triples parsing/writing,
// IRI decomposition.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scratch_dir.h"
#include "rdf/iri.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "util/hash.h"
#include "util/rng.h"

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
// Term views and line-aligned chunks
// ---------------------------------------------------------------------------

constexpr const char* kViewDoc =
    "# views\r\n"
    "<http://x/s\\u0031> <http://x/p> \"plain\" .\r\n"
    "<http://x/s1> <http://x/p> \"tab\\tand \\u00e9\"@en .\n"
    "not a triple\n"
    "\n"
    "_:b <http://x/p> <http://x/o> .\n"
    "_:b <http://x/p> \"5\"^^<http://x/t\\u0031> .";

TEST(TermViewTest, ScanViewsMatchesParseString) {
  NTriplesParser parser;
  ParseStats parsed_stats;
  auto triples = parser.ParseString(kViewDoc, &parsed_stats);
  ASSERT_TRUE(triples.ok());
  std::vector<TripleView> views;
  TermArena arena;
  ParseStats view_stats;
  ASSERT_TRUE(parser.ScanViews(kViewDoc, views, arena, &view_stats).ok());
  ASSERT_EQ(views.size(), triples->size());
  for (size_t i = 0; i < views.size(); ++i) {
    const TripleView expected = ViewOf((*triples)[i]);
    for (const auto& [got, want] :
         {std::pair{views[i].subject, expected.subject},
          std::pair{views[i].predicate, expected.predicate},
          std::pair{views[i].object, expected.object}}) {
      EXPECT_EQ(got.kind, want.kind) << "triple " << i;
      EXPECT_EQ(got.lexical, want.lexical) << "triple " << i;
    }
  }
  EXPECT_EQ(views[0].subject.lexical, "http://x/s1");
  EXPECT_EQ(views[1].object.lexical, "tab\tand \xC3\xA9");
  EXPECT_EQ(view_stats.lines, parsed_stats.lines);
  EXPECT_EQ(view_stats.triples, 4u);
  EXPECT_EQ(view_stats.skipped, 1u);
  EXPECT_EQ(view_stats.comments, 2u);

  NTriplesOptions strict;
  strict.strict = true;
  views.clear();
  const Status st =
      NTriplesParser(strict).ScanViews(kViewDoc, views, arena, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message().rfind("line 4: ", 0), 0u) << st.message();
}

TEST(TermViewTest, ChunkedScanYieldsTheWholeDocumentsViewsAtAnyChunkSize) {
  const std::string doc = kViewDoc;
  std::vector<TripleView> whole;
  TermArena whole_arena;
  NTriplesParser parser;
  ASSERT_TRUE(parser.ScanViews(doc, whole, whole_arena).ok());
  for (size_t chunk_bytes = 0; chunk_bytes <= doc.size() + 1; ++chunk_bytes) {
    const auto chunks = SplitLineAligned(doc, chunk_bytes);
    std::string joined;
    for (size_t c = 0; c < chunks.size(); ++c) {
      joined.append(chunks[c]);
      if (c + 1 < chunks.size()) EXPECT_EQ(chunks[c].back(), '\n');
      if (chunk_bytes > 0 && c + 1 < chunks.size()) {
        EXPECT_GE(chunks[c].size(), chunk_bytes);
      }
    }
    EXPECT_EQ(joined, doc) << chunk_bytes;
    std::vector<TripleView> views;
    TermArena arena;
    for (const std::string_view chunk : chunks) {
      ASSERT_TRUE(parser.ScanViews(chunk, views, arena).ok());
    }
    ASSERT_EQ(views.size(), whole.size()) << chunk_bytes;
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i].subject.lexical, whole[i].subject.lexical);
      EXPECT_EQ(views[i].predicate.lexical, whole[i].predicate.lexical);
      EXPECT_EQ(views[i].object.lexical, whole[i].object.lexical);
      EXPECT_EQ(views[i].object.kind, whole[i].object.kind);
    }
  }
  EXPECT_TRUE(SplitLineAligned("", 4).empty());
}

TEST(TermViewTest, ArenaViewsOutliveMovesAndGrowth) {
  TermArena arena;
  std::vector<TripleView> views;
  std::string doc;
  // About 23 escaped bytes a line: the arena outgrows its first block.
  for (int i = 0; i < 6000; ++i) {
    doc += "<http://x/s\\u0031> <http://x/p> \"v\\t" + std::to_string(i) +
           "\" .\n";
  }
  ASSERT_TRUE(NTriplesParser().ScanViews(doc, views, arena).ok());
  const TermArena moved = std::move(arena);
  ASSERT_EQ(views.size(), 6000u);
  EXPECT_EQ(views[0].subject.lexical, "http://x/s1");
  EXPECT_EQ(views[5999].object.lexical, "v\t5999");
}

// ---------------------------------------------------------------------------
// Mutation fuzzing, pinned to a reference build
// ---------------------------------------------------------------------------
//
// Seeded mutations of generated documents go through ParseString (strict and
// lenient) and, line by line, through ParseLine. Every status (code and
// message), every ParseStats and every parsed triple is folded into one
// digest per seed range. The pinned digests were produced by a build of the
// commit before the buffer-scanning rewrite of the parser, so the scanner
// must reproduce the line-at-a-time parser's grammar, error messages and
// columns, and counts byte for byte. Never regenerate them with the build
// under test: that would make the test a tautology. If the grammar changes
// on purpose, regenerate them from the commit before that change and say so
// in the commit message. Run under ASan (the "asan" ctest label), the same
// seeds also check that no mutation reads or writes out of bounds.

constexpr size_t kFuzzMaxLineBytes = 256;

std::string FuzzWord(Rng& rng) {
  static const char* const kWords[] = {"crete", "knossos", "phaistos",
                                       "zakros", "malia", "a1",
                                       "x_y", "b-2"};
  return kWords[rng.Below(std::size(kWords))];
}

std::string FuzzSubject(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return "_:b" + std::to_string(rng.Below(50));
    case 1:
      return "_:n." + FuzzWord(rng);
    case 2:
      return "<http://x.org/r/" + FuzzWord(rng) + "\\u00e9>";
    default:
      return "<http://x.org/r/" + FuzzWord(rng) + ">";
  }
}

std::string FuzzObject(Rng& rng) {
  switch (rng.Below(9)) {
    case 0:
      return "<http://x.org/r/" + FuzzWord(rng) + ">";
    case 1:
      return "_:o" + std::to_string(rng.Below(50));
    case 2:
      return "\"" + FuzzWord(rng) + " " + FuzzWord(rng) + "\"";
    case 3:
      return "\"" + FuzzWord(rng) + "\"@en-GB";
    case 4:
      return "\"" + std::to_string(rng.Below(3000)) +
             "\"^^<http://www.w3.org/2001/XMLSchema#integer>";
    case 5:
      return R"("tab\tquote\"back\\slashé\U0001F600\n\r\b\f\'")";
    case 6:
      return "\"x\"^^<http://x.org/d\\u0074>";
    case 7:
      return "\"\"";
    default:
      return "<http://x.org/r/" + FuzzWord(rng) + "#frag>";
  }
}

std::string FuzzSeparator(Rng& rng) {
  static const char* const kSeparators[] = {" ", " ", "\t", "  ", " \t "};
  return kSeparators[rng.Below(std::size(kSeparators))];
}

/// A valid document of 1-12 lines over every term form, with comments,
/// blank lines, CRLF endings and, sometimes, no final newline.
std::string FuzzDocument(Rng& rng) {
  std::string doc;
  const uint64_t lines = 1 + rng.Below(12);
  for (uint64_t i = 0; i < lines; ++i) {
    switch (rng.Below(8)) {
      case 0:
        doc += "# comment " + FuzzWord(rng);
        break;
      case 1:
        doc += rng.Below(2) == 0 ? "" : "  \t";
        break;
      default: {
        const std::string predicate =
            rng.Below(6) == 0 ? "<http://www.w3.org/2002/07/owl#sameAs>"
                              : "<http://x.org/v/" + FuzzWord(rng) + ">";
        static const char* const kTerminators[] = {" .", ".", " . # tail",
                                                   " .  "};
        doc += FuzzSubject(rng) + FuzzSeparator(rng) + predicate +
               FuzzSeparator(rng) + FuzzObject(rng) +
               kTerminators[rng.Below(std::size(kTerminators))];
      }
    }
    if (i + 1 < lines || rng.Below(3) != 0) {
      doc += rng.Below(4) == 0 ? "\r\n" : "\n";
    }
  }
  return doc;
}

/// Applies 1-4 mutations: byte flips, truncations, inserted special bytes
/// (backslash, quote, '>', CR, NUL and other grammar characters), and runs
/// that push a line across kFuzzMaxLineBytes.
std::string MutateDocument(std::string doc, Rng& rng) {
  static const char kInserts[] = {'\\', '"', '>', '\r', '\0', '<', '_',
                                  ':',  '@', '^', '.',  '#',  ' ', '\n',
                                  'u',  '\t'};
  const uint64_t mutations = 1 + rng.Below(4);
  for (uint64_t m = 0; m < mutations; ++m) {
    const size_t at = static_cast<size_t>(rng.Below(doc.size() + 1));
    switch (rng.Below(4)) {
      case 0:
        if (!doc.empty()) {
          doc[at % doc.size()] ^= static_cast<char>(1u << rng.Below(8));
        }
        break;
      case 1:
        doc.resize(at);
        break;
      case 2:
        doc.insert(at, 1, kInserts[rng.Below(std::size(kInserts))]);
        break;
      default:
        doc.insert(at, kFuzzMaxLineBytes - 8 + rng.Below(16), 'a');
    }
  }
  return doc;
}

uint64_t FoldStatus(uint64_t h, const Status& status) {
  h = HashCombine(h, static_cast<uint64_t>(status.code()));
  return HashCombine(h, Fnv1a64(status.message()));
}

uint64_t FoldTerm(uint64_t h, const Term& term) {
  h = HashCombine(h, static_cast<uint64_t>(term.kind));
  h = HashCombine(h, Fnv1a64(term.lexical));
  h = HashCombine(h, Fnv1a64(term.datatype));
  return HashCombine(h, Fnv1a64(term.language));
}

uint64_t FoldTriple(uint64_t h, const Triple& t) {
  return FoldTerm(FoldTerm(FoldTerm(h, t.subject), t.predicate), t.object);
}

/// Digest of parsing the mutated documents of seeds [first, first + count).
uint64_t FuzzDigest(uint64_t first, uint64_t count) {
  NTriplesOptions lenient_options;
  lenient_options.max_line_bytes = kFuzzMaxLineBytes;
  NTriplesOptions strict_options = lenient_options;
  strict_options.strict = true;
  const NTriplesParser lenient(lenient_options);
  const NTriplesParser strict(strict_options);
  uint64_t h = Fnv1a64("minoan-ntriples-fuzz");
  for (uint64_t seed = first; seed < first + count; ++seed) {
    Rng rng(seed);
    const std::string doc = MutateDocument(FuzzDocument(rng), rng);
    for (const NTriplesParser* parser : {&strict, &lenient}) {
      ParseStats stats;
      const auto parsed = parser->ParseString(doc, &stats);
      h = FoldStatus(h, parsed.status());
      for (const uint64_t n :
           {stats.lines, stats.triples, stats.comments, stats.skipped}) {
        h = HashCombine(h, n);
      }
      if (parsed.ok()) {
        h = HashCombine(h, parsed->size());
        for (const Triple& t : *parsed) h = FoldTriple(h, t);
      }
    }
    size_t begin = 0;
    while (begin <= doc.size()) {
      size_t end = doc.find('\n', begin);
      if (end == std::string::npos) end = doc.size();
      Triple t;
      bool is_triple = false;
      const Status st = lenient.ParseLine(
          std::string_view(doc).substr(begin, end - begin), t, is_triple);
      h = HashCombine(FoldStatus(h, st), is_triple ? 1 : 0);
      if (st.ok() && is_triple) h = FoldTriple(h, t);
      begin = end + 1;
    }
  }
  return h;
}

TEST(ParserFuzzTest, MutatedDocumentsMatchReferenceDigests) {
  struct Pinned {
    uint64_t first_seed;
    uint64_t digest;
  };
  constexpr uint64_t kSeedsPerRange = 2500;
  constexpr Pinned kPinned[] = {
      {0, 0xc23831e9fbd2a279},
      {2500, 0xefd2822af1ba866c},
      {5000, 0x92c8f7bc4cc95975},
      {7500, 0xec174ca3ca3ae69c},
  };
  for (const Pinned& range : kPinned) {
    const uint64_t digest = FuzzDigest(range.first_seed, kSeedsPerRange);
    EXPECT_EQ(digest, range.digest) << "seeds " << range.first_seed;
    if (digest != range.digest) {
      char line[64];
      std::snprintf(line, sizeof(line), "      {%llu, 0x%016llx},\n",
                    static_cast<unsigned long long>(range.first_seed),
                    static_cast<unsigned long long>(digest));
      std::cout << line;
    }
  }
}

TEST(ParserFuzzTest, LineAtTheDefaultCapIsAcceptedAndOneMoreByteIsNot) {
  NTriplesParser parser;
  const std::string head = "<http://x/s> <http://x/p> \"";
  const std::string tail = "\" .";
  const size_t cap = NTriplesOptions().max_line_bytes;
  std::string line = head + std::string(cap - head.size() - tail.size(), 'v') +
                     tail;
  ParseStats stats;
  auto at_cap = parser.ParseString(line + "\r\n", &stats);
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(stats.triples, 1u);
  line.insert(head.size(), 1, 'v');
  auto over = parser.ParseString(line, &stats);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(stats.triples, 0u);
  EXPECT_EQ(stats.skipped, 1u);
  NTriplesOptions strict;
  strict.strict = true;
  auto rejected = NTriplesParser(strict).ParseString(line);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "line 1: line exceeds max_line_bytes");
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
