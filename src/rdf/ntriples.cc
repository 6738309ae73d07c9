#include "rdf/ntriples.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace minoan {
namespace rdf {

namespace {

/// A term's text as the scanner found it: a view of the line, still
/// holding its backslash escapes when `escaped`.
struct RawText {
  std::string_view text;
  bool escaped = false;
};

/// One scanned term. Blank labels and language tags never hold escapes.
struct RawTerm {
  TermKind kind = TermKind::kIri;
  RawText lexical;
  RawText datatype;
  std::string_view language;
};

struct RawTriple {
  RawTerm subject;
  RawTerm predicate;
  RawTerm object;
};

/// Byte classes inside an IRIREF body.
enum IriByte : uint8_t { kIriPlain, kIriIllegal, kIriBackslash, kIriClose };

constexpr std::array<uint8_t, 256> MakeIriBytes() {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 0x21; ++c) classes[c] = kIriIllegal;
  for (const char c : {' ', '"', '{', '}', '|', '^', '`'}) {
    classes[static_cast<unsigned char>(c)] = kIriIllegal;
  }
  classes['\\'] = kIriBackslash;
  classes['>'] = kIriClose;
  return classes;
}

constexpr std::array<uint8_t, 256> kIriBytes = MakeIriBytes();

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

uint32_t HexValue(char c) {
  if (c >= '0' && c <= '9') return static_cast<uint32_t>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<uint32_t>(c - 'a' + 10);
  return static_cast<uint32_t>(c - 'A' + 10);
}

bool IsAlnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

bool IsPnCharBase(char c) {
  return IsAlnum(c) || static_cast<unsigned char>(c) >= 0x80;
}

/// A blank-label character: PN_CHARS_BASE, '_' or '-'.
bool IsLabelChar(char c) { return IsPnCharBase(c) || c == '_' || c == '-'; }

/// Writes the UTF-8 encoding of `cp` at `out`; returns the end.
char* EncodeUtf8(uint32_t cp, char* out) {
  if (cp < 0x80) {
    *out++ = static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out++ = static_cast<char>(0xC0 | (cp >> 6));
    *out++ = static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out++ = static_cast<char>(0xE0 | (cp >> 12));
    *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out++ = static_cast<char>(0xF0 | (cp >> 18));
    *out++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (cp & 0x3F));
  }
  return out;
}

/// Decodes a span the scanner validated into `out`, which has room for
/// raw.size() bytes (no escape decodes to more bytes than it spells).
/// Returns the decoded length.
size_t DecodeEscapes(std::string_view raw, char* out) {
  char* o = out;
  for (size_t i = 0; i < raw.size();) {
    const char c = raw[i++];
    if (c != '\\') {
      *o++ = c;
      continue;
    }
    const char kind = raw[i++];
    switch (kind) {
      case 't':
        *o++ = '\t';
        break;
      case 'b':
        *o++ = '\b';
        break;
      case 'n':
        *o++ = '\n';
        break;
      case 'r':
        *o++ = '\r';
        break;
      case 'f':
        *o++ = '\f';
        break;
      case 'u':
      case 'U': {
        const int digits = kind == 'u' ? 4 : 8;
        uint32_t cp = 0;
        for (int d = 0; d < digits; ++d) cp = (cp << 4) | HexValue(raw[i++]);
        o = EncodeUtf8(cp, o);
        break;
      }
      default:  // '"', '\'' and '\\' stand for themselves
        *o++ = kind;
    }
  }
  return static_cast<size_t>(o - out);
}

/// `raw` as a string, built once at its final size.
void AssignText(const RawText& raw, std::string& out) {
  if (!raw.escaped) {
    out.assign(raw.text);
    return;
  }
  out.resize(raw.text.size());
  out.resize(DecodeEscapes(raw.text, out.data()));
}

void BuildTerm(const RawTerm& raw, Term& out) {
  out.kind = raw.kind;
  AssignText(raw.lexical, out.lexical);
  AssignText(raw.datatype, out.datatype);
  out.language.assign(raw.language);
}

void BuildTriple(const RawTriple& raw, Triple& out) {
  BuildTerm(raw.subject, out.subject);
  BuildTerm(raw.predicate, out.predicate);
  BuildTerm(raw.object, out.object);
}

TermView ViewTerm(const RawTerm& raw, TermArena& arena) {
  if (!raw.lexical.escaped) return {raw.kind, raw.lexical.text};
  char* decoded = arena.Allocate(raw.lexical.text.size());
  return {raw.kind, std::string_view(
                        decoded, DecodeEscapes(raw.lexical.text, decoded))};
}

/// Scans one line (no newline) into raw terms. The term scanners return
/// false after recording the first error; only then is a message built.
/// The position bookkeeping reproduces a cursor that reads '\0' past the
/// end without advancing, so every error names the column the
/// line-at-a-time grammar always named.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line)
      : begin_(line.data()), p_(line.data()), end_(p_ + line.size()) {}

  /// Scans the line; false on a syntax error (see error()).
  bool Scan(RawTriple& out, bool& is_triple) {
    SkipWhitespace();
    if (p_ == end_ || *p_ == '#') return true;

    if (Peek() == '<') {
      if (!ScanIri(out.subject)) return false;
    } else if (Peek() == '_') {
      if (!ScanBlank(out.subject)) return false;
    } else {
      return Fail("subject must be IRI or blank node");
    }
    SkipWhitespace();
    if (Peek() != '<') return Fail("predicate must be an IRI");
    if (!ScanIri(out.predicate)) return false;
    SkipWhitespace();
    switch (Peek()) {
      case '<':
        if (!ScanIri(out.object)) return false;
        break;
      case '_':
        if (!ScanBlank(out.object)) return false;
        break;
      case '"':
        if (!ScanLiteral(out.object)) return false;
        break;
      default:
        return Fail("object must be IRI, blank node, or literal");
    }
    SkipWhitespace();
    if (Next() != '.') return Fail("missing statement terminator '.'");
    SkipWhitespace();
    if (p_ != end_ && *p_ != '#') return Fail("trailing content after '.'");
    is_triple = true;
    return true;
  }

  Status error() const {
    return Status::ParseError(what_ + " at column " + std::to_string(column_));
  }

 private:
  char Peek() const { return p_ < end_ ? *p_ : '\0'; }
  char Next() { return p_ < end_ ? *p_++ : '\0'; }

  void SkipWhitespace() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t')) ++p_;
  }

  bool Fail(std::string what) {
    what_ = std::move(what);
    column_ = static_cast<size_t>(p_ - begin_) + 1;
    return false;
  }

  /// Validates one escape; p_ is just past the backslash.
  bool ScanEscape() {
    const char kind = Next();
    switch (kind) {
      case 't':
      case 'b':
      case 'n':
      case 'r':
      case 'f':
      case '"':
      case '\'':
      case '\\':
        return true;
      case 'u':
      case 'U': {
        const int digits = kind == 'u' ? 4 : 8;
        uint32_t cp = 0;
        for (int d = 0; d < digits; ++d) {
          const char h = Next();
          if (!IsHexDigit(h)) return Fail("bad \\u escape");
          cp = (cp << 4) | HexValue(h);
        }
        return cp <= 0x10FFFF || Fail("code point out of range");
      }
      default:
        return Fail(std::string("unknown escape \\") + kind);
    }
  }

  /// Scans <IRIREF>; p_ is at '<'.
  bool ScanIri(RawText& out) {
    const char* const start = ++p_;
    bool escaped = false;
    for (;;) {
      if (p_ == end_) return Fail("unterminated IRI");
      const uint8_t cls = kIriBytes[static_cast<unsigned char>(*p_++)];
      if (cls == kIriPlain) continue;
      if (cls == kIriClose) break;
      if (cls == kIriIllegal) return Fail("illegal character in IRI");
      escaped = true;
      if (!ScanEscape()) return false;
    }
    if (p_ - 1 == start) return Fail("empty IRI");
    out = {std::string_view(start, p_ - 1 - start), escaped};
    return true;
  }

  bool ScanIri(RawTerm& out) {
    out.kind = TermKind::kIri;
    return ScanIri(out.lexical);
  }

  /// Scans _:label; p_ is at '_'.
  bool ScanBlank(RawTerm& out) {
    ++p_;
    if (Next() != ':') return Fail("expected ':' after '_'");
    const char first = Peek();
    if (!(IsPnCharBase(first) || first == '_')) {
      return Fail("bad blank node label");
    }
    const char* const start = p_;
    while (p_ < end_) {
      // An interior '.' is part of the label; a trailing '.' is the
      // statement terminator and must be left unconsumed.
      if (IsLabelChar(*p_) ||
          (*p_ == '.' && p_ + 1 < end_ && IsLabelChar(p_[1]))) {
        ++p_;
      } else {
        break;
      }
    }
    out.kind = TermKind::kBlank;
    out.lexical = {std::string_view(start, p_ - start), false};
    return true;
  }

  /// Scans "literal"(@lang | ^^<iri>)?; p_ is at '"'.
  bool ScanLiteral(RawTerm& out) {
    const char* const start = ++p_;
    bool escaped = false;
    for (;;) {
      while (p_ < end_ && *p_ != '"' && *p_ != '\\') ++p_;
      if (p_ == end_) return Fail("unterminated literal");
      if (*p_ == '"') break;
      ++p_;
      escaped = true;
      if (!ScanEscape()) return false;
    }
    out.kind = TermKind::kLiteral;
    out.lexical = {std::string_view(start, p_ - start), escaped};
    ++p_;  // the closing quote
    if (Peek() == '@') {
      const char* const tag = ++p_;
      while (p_ < end_ && (IsAlnum(*p_) || *p_ == '-')) ++p_;
      if (p_ == tag) return Fail("empty language tag");
      out.language = std::string_view(tag, p_ - tag);
    } else if (Peek() == '^') {
      ++p_;
      if (Next() != '^') return Fail("expected '^^'");
      if (Peek() != '<') return Fail("expected datatype IRI");
      if (!ScanIri(out.datatype)) return false;
    }
    return true;
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  std::string what_;
  size_t column_ = 0;
};

Status ScanLine(const NTriplesOptions& options, std::string_view line,
                RawTriple& out, bool& is_triple) {
  is_triple = false;
  if (line.size() > options.max_line_bytes) {
    return Status::ParseError("line exceeds max_line_bytes");
  }
  LineScanner scanner(line);
  return scanner.Scan(out, is_triple) ? Status::Ok() : scanner.error();
}

/// Lines of `text`: what getline would split off, the last one also when
/// no newline ends it.
size_t CountLines(std::string_view text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) +
         (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// Scans every line of `text`, calling on_triple(const RawTriple&) per
/// triple: the one line loop behind every entry point but ParseLine.
template <typename OnTriple>
Status ScanDocument(const NTriplesOptions& options, std::string_view text,
                    ParseStats* stats, const OnTriple& on_triple) {
  ParseStats local;
  Status status = Status::Ok();
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* const line_end = nl != nullptr ? nl : end;
    std::string_view line(p, line_end - p);
    p = nl != nullptr ? nl + 1 : end;
    ++local.lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    RawTriple raw;
    bool is_triple = false;
    const Status st = ScanLine(options, line, raw, is_triple);
    if (!st.ok()) {
      if (options.strict) {
        status = Status::ParseError("line " + std::to_string(local.lines) +
                                    ": " + st.message());
        break;
      }
      ++local.skipped;
    } else if (is_triple) {
      ++local.triples;
      on_triple(raw);
    } else {
      ++local.comments;
    }
  }
  if (stats) *stats = local;
  return status;
}

}  // namespace

char* TermArena::Allocate(size_t n) {
  constexpr size_t kBlockBytes = 64 << 10;
  if (blocks_.empty() || n > capacity_ - used_) {
    capacity_ = std::max(n, kBlockBytes);
    blocks_.emplace_back(new char[capacity_]);
    used_ = 0;
  }
  char* const out = blocks_.back().get() + used_;
  used_ += n;
  return out;
}

Status NTriplesParser::ParseLine(std::string_view line, Triple& out,
                                 bool& is_triple) const {
  RawTriple raw;
  MINOAN_RETURN_IF_ERROR(ScanLine(options_, line, raw, is_triple));
  if (is_triple) BuildTriple(raw, out);
  return Status::Ok();
}

Result<std::vector<Triple>> NTriplesParser::ParseFile(const std::string& path,
                                                      ParseStats* stats) const {
  MINOAN_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  return ParseString(bytes, stats);
}

Result<std::vector<Triple>> NTriplesParser::ParseString(
    std::string_view document, ParseStats* stats) const {
  std::vector<Triple> triples;
  triples.reserve(CountLines(document));
  MINOAN_RETURN_IF_ERROR(
      ScanDocument(options_, document, stats, [&](const RawTriple& raw) {
        BuildTriple(raw, triples.emplace_back());
      }));
  return triples;
}

Status NTriplesParser::ScanViews(std::string_view text,
                                 std::vector<TripleView>& out,
                                 TermArena& arena, ParseStats* stats) const {
  out.reserve(out.size() + CountLines(text));
  return ScanDocument(options_, text, stats, [&](const RawTriple& raw) {
    out.push_back({ViewTerm(raw.subject, arena),
                   ViewTerm(raw.predicate, arena),
                   ViewTerm(raw.object, arena)});
  });
}

std::vector<std::string_view> SplitLineAligned(std::string_view text,
                                               size_t chunk_bytes) {
  std::vector<std::string_view> chunks;
  const size_t reach = std::max<size_t>(chunk_bytes, 1) - 1;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin + reach);
    end = end == std::string_view::npos ? text.size() : end + 1;
    chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return chunks;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path);
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    // Not a regular file (a pipe, a directory): read what the stream has.
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return std::move(buffer).str();
  }
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  bytes.resize(static_cast<size_t>(in.gcount()));
  return bytes;
}

}  // namespace rdf
}  // namespace minoan
