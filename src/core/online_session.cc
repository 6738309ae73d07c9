#include "core/online_session.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>

#include "matching/matcher.h"
#include "rdf/turtle.h"
#include "util/cli_flags.h"

namespace minoan {

namespace {

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(std::move(word));
  return words;
}

}  // namespace

OnlineSession::OnlineSession(online::OnlineOptions options)
    : resolver_(options) {}

Result<uint32_t> OnlineSession::AddSource(
    const std::string& name, const std::vector<rdf::Triple>& triples) {
  if (source_by_name_.count(name) > 0) {
    return Status::AlreadyExists("source already registered: " + name);
  }
  Source source;
  source.name = name;
  source.kb_id = resolver_.EnsureKb(name);

  source.entities = online::GroupBySubject(triples);

  const uint32_t id = static_cast<uint32_t>(sources_.size());
  source_by_name_.emplace(name, id);
  sources_.push_back(std::move(source));
  return id;
}

Result<uint32_t> OnlineSession::AddSourceFile(const std::string& path) {
  MINOAN_ASSIGN_OR_RETURN(std::vector<rdf::Triple> triples,
                          rdf::LoadTriples(path));
  // Name sources by file stem; fall back to the full filename when two
  // files share a stem (data.nt + data.ttl in one directory).
  const std::string stem = std::filesystem::path(path).stem().string();
  if (source_by_name_.count(stem) == 0) return AddSource(stem, triples);
  return AddSource(std::filesystem::path(path).filename().string(), triples);
}

Result<uint32_t> OnlineSession::IngestNext(uint32_t s, uint32_t count) {
  if (s >= sources_.size()) {
    return Status::InvalidArgument("unknown source index");
  }
  Source& source = sources_[s];
  uint32_t ingested = 0;
  while (ingested < count && source.next < source.entities.size()) {
    auto result = resolver_.Ingest(source.kb_id,
                                   source.entities[source.next]);
    MINOAN_RETURN_IF_ERROR(result.status());
    ++source.next;
    ++ingested;
  }
  return ingested;
}

Status OnlineSession::RunCommand(const std::string& line, std::ostream& out) {
  const std::vector<std::string> words = SplitWords(line);
  if (words.empty() || words[0][0] == '#') return Status::Ok();
  const std::string& cmd = words[0];
  char buf[256];

  if (cmd == "ingest") {
    if (words.size() < 2) {
      return Status::InvalidArgument("ingest needs a source name or '*'");
    }
    uint32_t count = ~0u;
    if (words.size() >= 3 && words[2] != "all") {
      MINOAN_ASSIGN_OR_RETURN(const uint64_t parsed,
                              cli::ParseUint("ingest count", words[2]));
      count = static_cast<uint32_t>(std::min<uint64_t>(parsed, ~0u));
    }
    const uint64_t candidates_before = resolver_.candidate_pairs_created();
    uint32_t ingested = 0;
    for (uint32_t s = 0; s < sources_.size(); ++s) {
      if (words[1] != "*" && sources_[s].name != words[1]) continue;
      MINOAN_ASSIGN_OR_RETURN(const uint32_t n,
                              IngestNext(s, count - ingested));
      ingested += n;
      if (words[1] != "*") break;
    }
    if (words[1] != "*" && source_by_name_.count(words[1]) == 0) {
      return Status::NotFound("unknown source: " + words[1]);
    }
    std::snprintf(buf, sizeof(buf),
                  "ingest %-14s +%u entities (%u total), +%llu candidates",
                  words[1].c_str(), ingested,
                  resolver_.collection().num_entities(),
                  static_cast<unsigned long long>(
                      resolver_.candidate_pairs_created() -
                      candidates_before));
    out << buf << "\n";
    return Status::Ok();
  }

  if (cmd == "resolve") {
    if (words.size() < 2) return Status::InvalidArgument("resolve needs n");
    MINOAN_ASSIGN_OR_RETURN(const uint64_t budget,
                            cli::ParseUint("resolve budget", words[1]));
    const online::OnlineStepResult step = resolver_.ResolveBudget(budget);
    std::snprintf(buf, sizeof(buf),
                  "resolve %-13llu compared %llu, +%zu matches (%zu total)%s",
                  static_cast<unsigned long long>(budget),
                  static_cast<unsigned long long>(step.comparisons),
                  step.matches.size(), resolver_.run().matches.size(),
                  step.exhausted ? " [queue drained]" : "");
    out << buf << "\n";
    return Status::Ok();
  }

  if (cmd == "query") {
    if (words.size() < 2) return Status::InvalidArgument("query needs an IRI");
    uint32_t k = 5;
    if (words.size() >= 3) {
      MINOAN_ASSIGN_OR_RETURN(const uint64_t parsed,
                              cli::ParseUint("query k", words[2]));
      k = static_cast<uint32_t>(std::min<uint64_t>(parsed, ~0u));
    }
    const EntityId id = resolver_.collection().FindByIri(words[1]);
    if (id == kInvalidEntity) {
      return Status::NotFound("unknown entity IRI: " + words[1]);
    }
    const auto candidates = resolver_.Query(id, k);
    out << "query " << words[1] << " top-" << k << ":\n";
    for (size_t i = 0; i < candidates.size(); ++i) {
      // Stream the IRI (LOD IRIs routinely exceed any fixed buffer); only
      // the similarity needs printf formatting.
      std::snprintf(buf, sizeof(buf), "%.4f", candidates[i].similarity);
      out << "  " << (i + 1) << ". <"
          << resolver_.collection().EntityIri(candidates[i].id)
          << "> sim=" << buf << (candidates[i].matched ? " [matched]" : "")
          << "\n";
    }
    if (candidates.empty()) out << "  (no candidates)\n";
    return Status::Ok();
  }

  if (cmd == "stats") {
    std::snprintf(
        buf, sizeof(buf),
        "stats                entities=%u kbs=%u pending=%zu compared=%llu "
        "matches=%zu discovered=%llu",
        resolver_.collection().num_entities(),
        resolver_.collection().num_kbs(), resolver_.pending_comparisons(),
        static_cast<unsigned long long>(resolver_.run().comparisons_executed),
        resolver_.run().matches.size(),
        static_cast<unsigned long long>(resolver_.discovered_pairs()));
    out << buf << "\n";
    return Status::Ok();
  }

  if (cmd == "links") {
    const auto links = UniqueMappingClustering(resolver_.run().matches,
                                               resolver_.collection());
    out << "links " << links.size() << ":\n";
    for (const MatchEvent& m : links) {
      out << "  <" << resolver_.collection().EntityIri(m.a) << "> <"
          << resolver_.collection().EntityIri(m.b) << ">\n";
    }
    return Status::Ok();
  }

  return Status::InvalidArgument("unknown script command: " + cmd);
}

Status OnlineSession::RunScript(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    MINOAN_RETURN_IF_ERROR(RunCommand(line, out));
  }
  return Status::Ok();
}

}  // namespace minoan
