#include "rdf/turtle.h"

#include <cctype>
#include <unordered_map>

#include "rdf/iri.h"
#include "rdf/ntriples.h"

namespace minoan {
namespace rdf {

namespace {

constexpr std::string_view kXsdDecimal =
    "http://www.w3.org/2001/XMLSchema#decimal";
constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";

bool IsPnLocalChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || static_cast<unsigned char>(c) >= 0x80;
}

/// Minimal relative-IRI resolution sufficient for LOD dumps.
std::string ResolveIri(const std::string& base, const std::string& rel) {
  if (rel.empty()) return base;
  if (LooksLikeAbsoluteIri(rel)) return rel;
  if (base.empty()) return rel;
  if (rel[0] == '#') {
    const size_t hash = base.find('#');
    return base.substr(0, hash) + rel;
  }
  const size_t scheme_end = base.find("://");
  if (scheme_end == std::string::npos) return rel;
  if (rel.rfind("//", 0) == 0) {
    return base.substr(0, scheme_end + 1) + rel;
  }
  const size_t authority_end = base.find('/', scheme_end + 3);
  if (rel[0] == '/') {
    return (authority_end == std::string::npos
                ? base
                : base.substr(0, authority_end)) +
           rel;
  }
  // Relative path: replace everything after the last '/'.
  const size_t last_slash = base.rfind('/');
  if (last_slash == std::string::npos || last_slash < scheme_end + 3) {
    return base + "/" + rel;
  }
  return base.substr(0, last_slash + 1) + rel;
}

/// Recursive-descent Turtle document parser.
class Parser {
 public:
  Parser(std::string_view doc, std::string base)
      : doc_(doc), base_(std::move(base)) {}

  Result<std::vector<Triple>> Run() {
    for (;;) {
      SkipWs();
      if (AtEnd()) break;
      Status st = ParseStatement();
      if (!st.ok()) return Annotate(st);
    }
    return std::move(triples_);
  }

 private:
  // --- lexing helpers ------------------------------------------------------

  bool AtEnd() const { return pos_ >= doc_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < doc_.size() ? doc_[pos_ + ahead] : '\0';
  }
  char Next() { return pos_ < doc_.size() ? doc_[pos_++] : '\0'; }

  void SkipWs() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '#') {
        while (!AtEnd() && Next() != '\n') {
        }
      } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool ConsumeKeyword(std::string_view word) {
    if (doc_.size() - pos_ < word.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(doc_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    const char after = Peek(word.size());
    if (IsPnLocalChar(after) || after == ':') return false;
    pos_ += word.size();
    return true;
  }

  Status Error(const std::string& what) const {
    return Status::ParseError(what);
  }

  Status Annotate(const Status& st) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < doc_.size(); ++i) {
      if (doc_[i] == '\n') ++line;
    }
    return Status::ParseError("line " + std::to_string(line) + ": " +
                              st.message());
  }

  // --- grammar -------------------------------------------------------------

  Status ParseStatement() {
    if (Peek() == '@') {
      ++pos_;
      if (ConsumeKeyword("prefix")) return ParsePrefixDirective(true);
      if (ConsumeKeyword("base")) return ParseBaseDirective(true);
      return Error("unknown @directive");
    }
    // SPARQL-style directives (no trailing dot).
    const size_t saved = pos_;
    if (ConsumeKeyword("prefix")) return ParsePrefixDirective(false);
    pos_ = saved;
    if (ConsumeKeyword("base")) return ParseBaseDirective(false);
    pos_ = saved;
    return ParseTriples();
  }

  Status ParsePrefixDirective(bool turtle_style) {
    SkipWs();
    std::string prefix;
    while (IsPnLocalChar(Peek()) || Peek() == '.') prefix += Next();
    if (Next() != ':') return Error("expected ':' in @prefix");
    SkipWs();
    Term iri;
    MINOAN_RETURN_IF_ERROR(ParseIriRef(iri));
    prefixes_[prefix] = iri.lexical;
    SkipWs();
    if (turtle_style && Next() != '.') {
      return Error("expected '.' after @prefix");
    }
    return Status::Ok();
  }

  Status ParseBaseDirective(bool turtle_style) {
    SkipWs();
    Term iri;
    MINOAN_RETURN_IF_ERROR(ParseIriRef(iri));
    base_ = iri.lexical;
    SkipWs();
    if (turtle_style && Next() != '.') return Error("expected '.' after @base");
    return Status::Ok();
  }

  Status ParseTriples() {
    Term subject;
    if (Peek() == '[') {
      MINOAN_RETURN_IF_ERROR(ParseBlankNodePropertyList(subject));
      SkipWs();
      // A bare "[ ... ] ." is legal; predicate list optional after [].
      if (Peek() == '.') {
        ++pos_;
        return Status::Ok();
      }
    } else {
      MINOAN_RETURN_IF_ERROR(ParseSubject(subject));
    }
    MINOAN_RETURN_IF_ERROR(ParsePredicateObjectList(subject));
    SkipWs();
    if (Next() != '.') return Error("expected '.' at end of triples");
    return Status::Ok();
  }

  Status ParsePredicateObjectList(const Term& subject) {
    for (;;) {
      SkipWs();
      Term predicate;
      MINOAN_RETURN_IF_ERROR(ParseVerb(predicate));
      MINOAN_RETURN_IF_ERROR(ParseObjectList(subject, predicate));
      SkipWs();
      if (Peek() != ';') break;
      ++pos_;
      SkipWs();
      // Trailing ';' before '.' or ']' is legal.
      if (Peek() == '.' || Peek() == ']') break;
    }
    return Status::Ok();
  }

  Status ParseObjectList(const Term& subject, const Term& predicate) {
    for (;;) {
      SkipWs();
      Term object;
      MINOAN_RETURN_IF_ERROR(ParseObject(object));
      triples_.push_back({subject, predicate, object});
      SkipWs();
      if (Peek() != ',') break;
      ++pos_;
    }
    return Status::Ok();
  }

  Status ParseVerb(Term& out) {
    if (Peek() == 'a') {
      const char after = Peek(1);
      if (!IsPnLocalChar(after) && after != ':') {
        ++pos_;
        out = Term::Iri(std::string(kRdfType));
        return Status::Ok();
      }
    }
    return ParseIri(out);
  }

  Status ParseSubject(Term& out) {
    SkipWs();
    if (Peek() == '_') return ParseBlankLabel(out);
    if (Peek() == '(') return Error("RDF collections '(...)' not supported");
    return ParseIri(out);
  }

  Status ParseObject(Term& out) {
    SkipWs();
    const char c = Peek();
    if (c == '<') return ParseIriRefResolved(out);
    if (c == '_') return ParseBlankLabel(out);
    if (c == '[') return ParseBlankNodePropertyList(out);
    if (c == '(') return Error("RDF collections '(...)' not supported");
    if (c == '"' || c == '\'') return ParseStringLiteral(out);
    if (c == '+' || c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumericLiteral(out);
    }
    if (ConsumeKeyword("true")) {
      out = Term::Literal("true", std::string(kXsdBoolean));
      return Status::Ok();
    }
    if (ConsumeKeyword("false")) {
      out = Term::Literal("false", std::string(kXsdBoolean));
      return Status::Ok();
    }
    return ParseIri(out);  // prefixed name
  }

  /// '<IRI>' without base resolution (directives resolve differently).
  Status ParseIriRef(Term& out) {
    if (Next() != '<') return Error("expected '<'");
    std::string iri;
    for (;;) {
      if (AtEnd()) return Error("unterminated IRI");
      const char c = Next();
      if (c == '>') break;
      if (c == ' ' || c == '\n') return Error("whitespace inside IRI");
      if (c == '\\') {
        const char esc = Next();
        if (esc == 'u' || esc == 'U') {
          const int digits = esc == 'u' ? 4 : 8;
          uint32_t cp = 0;
          for (int i = 0; i < digits; ++i) {
            const char h = Next();
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return Error("bad \\u escape in IRI");
            }
            cp = cp * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                ? static_cast<uint32_t>(h - '0')
                                : static_cast<uint32_t>(
                                      std::tolower(h) - 'a' + 10));
          }
          // Append UTF-8.
          std::string tmp;
          if (cp < 0x80) {
            tmp += static_cast<char>(cp);
          } else if (cp < 0x800) {
            tmp += static_cast<char>(0xC0 | (cp >> 6));
            tmp += static_cast<char>(0x80 | (cp & 0x3F));
          } else if (cp < 0x10000) {
            tmp += static_cast<char>(0xE0 | (cp >> 12));
            tmp += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            tmp += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            tmp += static_cast<char>(0xF0 | (cp >> 18));
            tmp += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            tmp += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            tmp += static_cast<char>(0x80 | (cp & 0x3F));
          }
          iri += tmp;
        } else {
          return Error("unsupported escape in IRI");
        }
      } else {
        iri += c;
      }
    }
    out = Term::Iri(std::move(iri));
    return Status::Ok();
  }

  Status ParseIriRefResolved(Term& out) {
    MINOAN_RETURN_IF_ERROR(ParseIriRef(out));
    out.lexical = ResolveIri(base_, out.lexical);
    return Status::Ok();
  }

  /// IRIREF or prefixed name.
  Status ParseIri(Term& out) {
    SkipWs();
    if (Peek() == '<') return ParseIriRefResolved(out);
    // Prefixed name: PN_PREFIX? ':' PN_LOCAL.
    std::string prefix;
    while (IsPnLocalChar(Peek()) ||
           (Peek() == '.' && IsPnLocalChar(Peek(1)))) {
      prefix += Next();
    }
    if (Peek() != ':') {
      return Error("expected IRI or prefixed name");
    }
    ++pos_;
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Error("undefined prefix '" + prefix + ":'");
    }
    std::string local;
    for (;;) {
      const char c = Peek();
      if (IsPnLocalChar(c) || c == ':' || c == '%') {
        local += Next();
      } else if (c == '\\') {
        ++pos_;
        local += Next();  // PN_LOCAL_ESC: take the escaped char verbatim
      } else if (c == '.' &&
                 (IsPnLocalChar(Peek(1)) || Peek(1) == ':' ||
                  Peek(1) == '%')) {
        local += Next();  // interior dot
      } else {
        break;
      }
    }
    out = Term::Iri(it->second + local);
    return Status::Ok();
  }

  Status ParseBlankLabel(Term& out) {
    if (Next() != '_' || Next() != ':') return Error("expected '_:'");
    std::string label;
    while (IsPnLocalChar(Peek()) ||
           (Peek() == '.' && IsPnLocalChar(Peek(1)))) {
      label += Next();
    }
    if (label.empty()) return Error("empty blank node label");
    out = Term::Blank(std::move(label));
    return Status::Ok();
  }

  Status ParseBlankNodePropertyList(Term& out) {
    ++pos_;  // '['
    out = Term::Blank("anon" + std::to_string(++anon_counter_));
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return Status::Ok();
    }
    MINOAN_RETURN_IF_ERROR(ParsePredicateObjectList(out));
    SkipWs();
    if (Next() != ']') return Error("expected ']'");
    return Status::Ok();
  }

  Status ParseStringLiteral(Term& out) {
    const char quote = Next();
    if (Peek() == quote && Peek(1) == quote) {
      return Error("triple-quoted strings not supported");
    }
    std::string value;
    for (;;) {
      if (AtEnd()) return Error("unterminated string");
      const char c = Next();
      if (c == quote) break;
      if (c == '\n') return Error("newline in single-line string");
      if (c == '\\') {
        const char esc = Next();
        switch (esc) {
          case 't':
            value += '\t';
            break;
          case 'b':
            value += '\b';
            break;
          case 'n':
            value += '\n';
            break;
          case 'r':
            value += '\r';
            break;
          case 'f':
            value += '\f';
            break;
          case '"':
            value += '"';
            break;
          case '\'':
            value += '\'';
            break;
          case '\\':
            value += '\\';
            break;
          case 'u':
          case 'U': {
            const int digits = esc == 'u' ? 4 : 8;
            uint32_t cp = 0;
            for (int i = 0; i < digits; ++i) {
              const char h = Next();
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                return Error("bad \\u escape");
              }
              cp = cp * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                  ? static_cast<uint32_t>(h - '0')
                                  : static_cast<uint32_t>(
                                        std::tolower(h) - 'a' + 10));
            }
            if (cp < 0x80) {
              value += static_cast<char>(cp);
            } else if (cp < 0x800) {
              value += static_cast<char>(0xC0 | (cp >> 6));
              value += static_cast<char>(0x80 | (cp & 0x3F));
            } else if (cp < 0x10000) {
              value += static_cast<char>(0xE0 | (cp >> 12));
              value += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              value += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              value += static_cast<char>(0xF0 | (cp >> 18));
              value += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
              value += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              value += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown string escape");
        }
      } else {
        value += c;
      }
    }
    // Language tag or datatype.
    std::string language, datatype;
    if (Peek() == '@') {
      ++pos_;
      while (std::isalnum(static_cast<unsigned char>(Peek())) ||
             Peek() == '-') {
        language += Next();
      }
      if (language.empty()) return Error("empty language tag");
    } else if (Peek() == '^' && Peek(1) == '^') {
      pos_ += 2;
      Term dt;
      MINOAN_RETURN_IF_ERROR(ParseIri(dt));
      datatype = std::move(dt.lexical);
    }
    out = Term::Literal(std::move(value), std::move(datatype),
                        std::move(language));
    return Status::Ok();
  }

  Status ParseNumericLiteral(Term& out) {
    std::string text;
    if (Peek() == '+' || Peek() == '-') text += Next();
    bool has_dot = false, has_exp = false;
    while (std::isdigit(static_cast<unsigned char>(Peek())) ||
           (Peek() == '.' &&
            std::isdigit(static_cast<unsigned char>(Peek(1)))) ||
           Peek() == 'e' || Peek() == 'E') {
      const char c = Next();
      if (c == '.') has_dot = true;
      if (c == 'e' || c == 'E') {
        has_exp = true;
        text += c;
        if (Peek() == '+' || Peek() == '-') text += Next();
        continue;
      }
      text += c;
    }
    if (text.empty() || text == "+" || text == "-") {
      return Error("malformed numeric literal");
    }
    const std::string_view datatype =
        has_exp ? kXsdDouble : (has_dot ? kXsdDecimal : kXsdInteger);
    out = Term::Literal(std::move(text), std::string(datatype));
    return Status::Ok();
  }

  std::string_view doc_;
  size_t pos_ = 0;
  std::string base_;
  std::unordered_map<std::string, std::string> prefixes_;
  uint64_t anon_counter_ = 0;
  std::vector<Triple> triples_;
};

}  // namespace

Result<std::vector<Triple>> TurtleParser::ParseString(
    std::string_view document) const {
  Parser parser(document, options_.base_iri);
  return parser.Run();
}

Result<std::vector<Triple>> TurtleParser::ParseFile(
    const std::string& path) const {
  MINOAN_ASSIGN_OR_RETURN(const std::string document, ReadFileBytes(path));
  return ParseString(document);
}

Result<std::vector<Triple>> LoadTriples(const std::string& path) {
  const size_t dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".ttl" || ext == ".turtle") {
    return TurtleParser().ParseFile(path);
  }
  if (ext == ".nt" || ext == ".ntriples") {
    NTriplesParser parser;
    return parser.ParseFile(path);
  }
  return Status::InvalidArgument("unknown RDF extension: " + path);
}

}  // namespace rdf
}  // namespace minoan
