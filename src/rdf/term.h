// Copyright 2026 The MinoanER Authors.
// RDF term and triple model.
//
// MinoanER consumes Linked Data serialized as N-Triples. A term is an IRI, a
// blank node, or a literal (optionally typed or language-tagged); a triple is
// (subject, predicate, object) where subject is IRI/blank, predicate is IRI,
// object is any term.

#ifndef MINOAN_RDF_TERM_H_
#define MINOAN_RDF_TERM_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace minoan {
namespace rdf {

enum class TermKind : uint8_t {
  kIri = 0,
  kBlank = 1,
  kLiteral = 2,
};

/// One RDF term. `lexical` holds the IRI string (no angle brackets), the
/// blank-node label (no "_:" prefix), or the literal's lexical form
/// (unescaped). For literals, `datatype` optionally holds the datatype IRI
/// and `language` the BCP-47 tag (mutually exclusive per the RDF spec; the
/// parser enforces this).
struct Term {
  TermKind kind = TermKind::kIri;
  std::string lexical;
  std::string datatype;  // literals only; empty = xsd:string implied
  std::string language;  // literals only

  static Term Iri(std::string iri) {
    Term t;
    t.kind = TermKind::kIri;
    t.lexical = std::move(iri);
    return t;
  }
  static Term Blank(std::string label) {
    Term t;
    t.kind = TermKind::kBlank;
    t.lexical = std::move(label);
    return t;
  }
  static Term Literal(std::string value, std::string datatype = "",
                      std::string language = "") {
    Term t;
    t.kind = TermKind::kLiteral;
    t.lexical = std::move(value);
    t.datatype = std::move(datatype);
    t.language = std::move(language);
    return t;
  }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_blank() const { return kind == TermKind::kBlank; }
  bool is_literal() const { return kind == TermKind::kLiteral; }

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && language == other.language;
  }

  /// Serializes in N-Triples syntax (with escaping).
  std::string ToNTriples() const;
};

std::ostream& operator<<(std::ostream& os, const Term& term);

/// One RDF statement.
struct Triple {
  Term subject;
  Term predicate;
  Term object;

  bool operator==(const Triple& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }

  /// One N-Triples line including the trailing " .".
  std::string ToNTriples() const;
};

std::ostream& operator<<(std::ostream& os, const Triple& triple);

/// A term as the KB builder reads it: its kind and lexical form, viewing
/// text owned elsewhere (a Term, or the buffer the N-Triples scanner read).
/// Datatype and language tag are not part of the view: ingestion never
/// reads them.
struct TermView {
  TermKind kind = TermKind::kIri;
  std::string_view lexical;

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_blank() const { return kind == TermKind::kBlank; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
};

/// One statement as three term views.
struct TripleView {
  TermView subject;
  TermView predicate;
  TermView object;
};

inline TermView ViewOf(const Term& term) { return {term.kind, term.lexical}; }

inline TripleView ViewOf(const Triple& triple) {
  return {ViewOf(triple.subject), ViewOf(triple.predicate),
          ViewOf(triple.object)};
}

/// Escapes a string for inclusion inside an N-Triples literal or IRI.
std::string EscapeNTriples(std::string_view raw);

// Well-known vocabulary IRIs.
inline constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr std::string_view kOwlSameAs =
    "http://www.w3.org/2002/07/owl#sameAs";
inline constexpr std::string_view kRdfsLabel =
    "http://www.w3.org/2000/01/rdf-schema#label";
inline constexpr std::string_view kXsdString =
    "http://www.w3.org/2001/XMLSchema#string";
inline constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";

}  // namespace rdf
}  // namespace minoan

#endif  // MINOAN_RDF_TERM_H_
