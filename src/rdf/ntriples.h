// Copyright 2026 The MinoanER Authors.
// N-Triples reader and writer (the Linked-Data ingestion substrate).
//
// The parser implements the W3C N-Triples grammar restricted to what Linked
// Open Data dumps actually use: one triple per line, `#` comments, IRIREF,
// BLANK_NODE_LABEL, STRING_LITERAL_QUOTE with language tag or datatype, and
// the string escape sequences \t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX.
// Malformed lines are reported with line numbers; callers choose strict
// (first error aborts) or lenient (skip-and-count) mode, because periphery
// LOD dumps are routinely dirty.
//
// One scanner runs over a contiguous buffer: memchr finds each line, and
// each term is scanned to its delimiter and validated in the same pass.
// Escapes are decoded only in a span that holds a backslash; every other
// term stays a view into the buffer until a caller copies it. Two outputs
// share that scanner:
//   * Triples (ParseLine/ParseString/ParseFile), whose strings
//     are each built once, at their final size;
//   * TripleViews (ScanViews), which the corpus loader builds knowledge
//     bases from without materializing a Triple (kb/collection.h). It scans
//     the line-aligned chunks of SplitLineAligned in parallel.

#ifndef MINOAN_RDF_NTRIPLES_H_
#define MINOAN_RDF_NTRIPLES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/status.h"

namespace minoan {
namespace rdf {

/// Parser configuration.
struct NTriplesOptions {
  /// When false, a malformed line is skipped and counted instead of aborting.
  bool strict = false;
  /// Hard cap on accepted line length (defense against corrupt dumps).
  size_t max_line_bytes = 1 << 20;
};

/// Statistics of one parse run. Every line counts, the last one also when
/// no newline ends it; a blank line counts as a comment.
struct ParseStats {
  uint64_t lines = 0;
  uint64_t triples = 0;
  uint64_t comments = 0;
  uint64_t skipped = 0;  // malformed lines in lenient mode
};

/// Storage for the decoded text of escaped terms: what ScanViews' views
/// point at when a term held a backslash. Bytes handed out never move, also
/// when the arena itself is moved, so views stay valid for its lifetime.
class TermArena {
 public:
  /// `n` bytes that stay put for the arena's lifetime.
  char* Allocate(size_t n);

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t capacity_ = 0;  // of the last block
  size_t used_ = 0;      // of the last block
};

/// Streaming N-Triples parser.
class NTriplesParser {
 public:
  explicit NTriplesParser(NTriplesOptions options = NTriplesOptions())
      : options_(options) {}

  /// Parses a single N-Triples line (without trailing newline) into `out`.
  /// Returns OK and sets `is_triple=false` for blank/comment lines.
  Status ParseLine(std::string_view line, Triple& out, bool& is_triple) const;

  /// Convenience: parses a whole file (read with one read) into a vector.
  Result<std::vector<Triple>> ParseFile(const std::string& path,
                                        ParseStats* stats = nullptr) const;

  /// Convenience: parses an in-memory document, in place, into a vector.
  Result<std::vector<Triple>> ParseString(std::string_view document,
                                          ParseStats* stats = nullptr) const;

  /// Scans the lines of `text` into term views, appending one TripleView
  /// per triple to `out` in line order. A term without escapes views
  /// `text`; an escaped one views its decoded form in `arena`. Strict and
  /// lenient mode, errors and stats are those of ParseString, with line
  /// numbers counted from the start of `text`.
  Status ScanViews(std::string_view text, std::vector<TripleView>& out,
                   TermArena& arena, ParseStats* stats = nullptr) const;

 private:
  NTriplesOptions options_;
};

/// Splits `text` into consecutive chunks that each end just after a '\n'
/// (the last one at the end of `text`): a chunk runs from where the last
/// one ended through the first '\n' that leaves it at least `chunk_bytes`
/// long (a chunk_bytes of 0 or 1 makes every line a chunk).
/// The boundaries depend only on the bytes and `chunk_bytes`, so chunks
/// scanned in parallel and read back in order yield the lines in order.
std::vector<std::string_view> SplitLineAligned(std::string_view text,
                                               size_t chunk_bytes);

/// The bytes of the file at `path`, read with one read (IoError when it
/// cannot be opened).
Result<std::string> ReadFileBytes(const std::string& path);

/// Serializes triples to an N-Triples stream (one line each).
class NTriplesWriter {
 public:
  explicit NTriplesWriter(std::ostream& out) : out_(out) {}

  void Write(const Triple& triple) { out_ << triple.ToNTriples() << "\n"; }

  void WriteAll(const std::vector<Triple>& triples) {
    for (const auto& t : triples) Write(t);
  }

 private:
  std::ostream& out_;
};

}  // namespace rdf
}  // namespace minoan

#endif  // MINOAN_RDF_NTRIPLES_H_
