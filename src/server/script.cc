#include "server/script.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/atomic_file.h"
#include "util/cli_flags.h"

namespace minoan {
namespace server {
namespace {

/// printf into `out`, so every reply line keeps its printf formatting.
[[gnu::format(printf, 2, 3)]] void Print(std::ostream& out, const char* format,
                                         ...) {
  va_list args;
  va_start(args, format);
  va_list sized;
  va_copy(sized, args);
  const int size = std::vsnprintf(nullptr, 0, format, sized);
  va_end(sized);
  std::string line(static_cast<size_t>(size), '\0');
  std::vsnprintf(line.data(), line.size() + 1, format, args);
  va_end(args);
  out << line;
}

/// Executes one command. A non-OK status stops the script.
Status RunCommand(Client& client, std::map<std::string, uint64_t>& sessions,
                  const std::vector<std::string>& tokens, std::ostream& out) {
  const auto session_of = [&](const std::string& name) -> Result<uint64_t> {
    const auto it = sessions.find(name);
    if (it == sessions.end()) {
      return Status::NotFound("no session handle '" + name +
                              "' (create one first)");
    }
    return it->second;
  };
  const std::string& cmd = tokens[0];
  if (cmd == "create") {
    if (tokens.size() < 5) {
      return Status::InvalidArgument(
          "create needs: create <name> <batch|online> <source|-> "
          "<threshold> [tenant] [seeds]");
    }
    const std::string& name = tokens[1];
    SessionKind kind;
    if (tokens[2] == "batch") {
      kind = SessionKind::kBatch;
    } else if (tokens[2] == "online") {
      kind = SessionKind::kOnline;
    } else {
      return Status::InvalidArgument("session kind must be batch or online, "
                                     "got " + tokens[2]);
    }
    const std::string source = tokens[3] == "-" ? "" : tokens[3];
    MINOAN_ASSIGN_OR_RETURN(
        const double threshold,
        cli::ParseDouble("create threshold", tokens[4], 0, 1));
    const std::string tenant = tokens.size() > 5 ? tokens[5] : name;
    const bool seeds = tokens.size() > 6 && tokens[6] == "seeds";
    MINOAN_ASSIGN_OR_RETURN(
        const uint64_t id,
        client.CreateSession(tenant, kind, source, threshold, seeds));
    sessions[name] = id;
    Print(out, "created %s = session %llu\n", name.c_str(),
          static_cast<unsigned long long>(id));
    return Status::Ok();
  }
  if (cmd == "step" || cmd == "resolve") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument(cmd + " needs: " + cmd +
                                     " <name> <budget>");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    MINOAN_ASSIGN_OR_RETURN(const uint64_t budget,
                            cli::ParseUint(cmd + " budget", tokens[2]));
    MINOAN_ASSIGN_OR_RETURN(const StepReply reply,
                            cmd == "step" ? client.Step(id, budget)
                                          : client.ResolveBudget(id, budget));
    Print(out, "%s: +%llu comparisons, +%llu matches (total %llu/%llu)%s\n",
          tokens[1].c_str(), static_cast<unsigned long long>(reply.comparisons),
          static_cast<unsigned long long>(reply.matches),
          static_cast<unsigned long long>(reply.total_comparisons),
          static_cast<unsigned long long>(reply.total_matches),
          reply.finished ? ", finished" : "");
    return Status::Ok();
  }
  if (cmd == "matches") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("matches needs: matches <name>");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    MINOAN_ASSIGN_OR_RETURN(const std::vector<MatchEvent> matches,
                            client.Matches(id));
    Print(out, "%s: %zu matches\n", tokens[1].c_str(), matches.size());
    for (const MatchEvent& m : matches) {
      Print(out, "match %u %u %.6f @%llu\n", m.a, m.b, m.similarity,
            static_cast<unsigned long long>(m.comparisons_done));
    }
    return Status::Ok();
  }
  if (cmd == "links") {
    // links <name> [file] — '-'/absent = the script's output.
    if (tokens.size() < 2) {
      return Status::InvalidArgument("links needs: links <name> [file]");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    MINOAN_ASSIGN_OR_RETURN(const std::string text, client.Links(id));
    if (tokens.size() > 2 && tokens[2] != "-") {
      MINOAN_RETURN_IF_ERROR(
          WriteFileAtomic(tokens[2], [&](std::ostream& file) {
            file << text;
            return Status::Ok();
          }).status());
      Print(out, "%s: wrote links to %s\n", tokens[1].c_str(),
            tokens[2].c_str());
    } else {
      out << text;
    }
    return Status::Ok();
  }
  if (cmd == "checkpoint") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("checkpoint needs: checkpoint <name>");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    MINOAN_ASSIGN_OR_RETURN(const uint64_t bytes, client.Checkpoint(id));
    Print(out, "%s: checkpointed %llu bytes\n", tokens[1].c_str(),
          static_cast<unsigned long long>(bytes));
    return Status::Ok();
  }
  if (cmd == "close") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("close needs: close <name>");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    MINOAN_RETURN_IF_ERROR(client.Close(id));
    sessions.erase(tokens[1]);
    Print(out, "closed %s\n", tokens[1].c_str());
    return Status::Ok();
  }
  if (cmd == "ingest") {
    // ingest <name> <kb> <file> — sends the client-local N-Triples file.
    if (tokens.size() < 4) {
      return Status::InvalidArgument("ingest needs: ingest <name> <kb> <file>");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    std::ifstream in(tokens[3]);
    if (!in) return Status::IoError("cannot read " + tokens[3]);
    std::ostringstream document;
    document << in.rdbuf();
    MINOAN_ASSIGN_OR_RETURN(const std::vector<EntityId> ids,
                            client.Ingest(id, tokens[2], document.str()));
    Print(out, "%s: ingested %zu entities into %s\n", tokens[1].c_str(),
          ids.size(), tokens[2].c_str());
    return Status::Ok();
  }
  if (cmd == "query") {
    if (tokens.size() < 4) {
      return Status::InvalidArgument("query needs: query <name> <entity> <k>");
    }
    MINOAN_ASSIGN_OR_RETURN(const uint64_t id, session_of(tokens[1]));
    MINOAN_ASSIGN_OR_RETURN(
        const uint64_t entity,
        cli::ParseUint("query entity", tokens[2], UINT32_MAX));
    MINOAN_ASSIGN_OR_RETURN(const uint64_t k,
                            cli::ParseUint("query k", tokens[3], UINT32_MAX));
    MINOAN_ASSIGN_OR_RETURN(const auto candidates,
                            client.Query(id, static_cast<EntityId>(entity),
                                         static_cast<uint32_t>(k)));
    for (const auto& c : candidates) {
      Print(out, "candidate %u %.6f%s\n", c.id, c.similarity,
            c.matched ? " matched" : "");
    }
    return Status::Ok();
  }
  if (cmd == "stats") {
    // stats [--full]: bare stats prints the session counts only; --full
    // adds the whole registry and the per-tenant breakdown.
    const bool full =
        tokens.size() > 1 && (tokens[1] == "--full" || tokens[1] == "full");
    MINOAN_ASSIGN_OR_RETURN(const auto stats, client.StatsFull());
    Print(out, "sessions: %llu live / %llu total\n",
          static_cast<unsigned long long>(stats.live_sessions),
          static_cast<unsigned long long>(stats.total_sessions));
    if (!full) return Status::Ok();
    for (const auto& [name, value] : stats.counters) {
      Print(out, "counter %s = %llu\n", name.c_str(),
            static_cast<unsigned long long>(value));
    }
    for (const auto& [name, value] : stats.gauges) {
      Print(out, "gauge %s = %lld\n", name.c_str(),
            static_cast<long long>(value));
    }
    for (const auto& [name, h] : stats.histograms) {
      Print(out,
            "histogram %s count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
            name.c_str(), static_cast<unsigned long long>(h.count),
            h.count > 0 ? static_cast<double>(h.sum) /
                              static_cast<double>(h.count)
                        : 0.0,
            h.p50, h.p95, h.p99);
    }
    for (const auto& t : stats.tenants) {
      Print(out,
            "tenant %s: sessions=%llu requests=%llu comparisons=%llu "
            "matches=%llu spill_bytes=%llu request_micros p50=%.1f p95=%.1f "
            "p99=%.1f\n",
            t.tenant.c_str(), static_cast<unsigned long long>(t.sessions),
            static_cast<unsigned long long>(t.requests),
            static_cast<unsigned long long>(t.comparisons),
            static_cast<unsigned long long>(t.matches),
            static_cast<unsigned long long>(t.spill_bytes),
            t.p50_request_micros, t.p95_request_micros, t.p99_request_micros);
    }
    return Status::Ok();
  }
  if (cmd == "ping") {
    MINOAN_RETURN_IF_ERROR(client.Ping());
    out << "pong\n";
    return Status::Ok();
  }
  if (cmd == "sleep") {
    // Lets a smoke script idle past --evict-after to exercise eviction.
    if (tokens.size() < 2) {
      return Status::InvalidArgument("sleep needs: sleep <seconds>");
    }
    MINOAN_ASSIGN_OR_RETURN(
        const double seconds,
        cli::ParseDouble("sleep seconds", tokens[1], 0, 86400));
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown connect command: " + cmd);
}

}  // namespace

Status RunScript(Client& client, std::istream& in, std::ostream& out) {
  std::map<std::string, uint64_t> sessions;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokenizer(line);
    std::vector<std::string> tokens;
    std::string token;
    while (tokenizer >> token) tokens.push_back(token);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    MINOAN_RETURN_IF_ERROR(RunCommand(client, sessions, tokens, out));
  }
  return Status::Ok();
}

}  // namespace server
}  // namespace minoan
