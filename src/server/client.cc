#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "server/wire.h"
#include "util/serde.h"

namespace minoan {
namespace server {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::IoError("connect " + host + ":" +
                                      std::to_string(port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> Client::Call(MessageId id, std::string_view body) {
  if (!broken_.ok()) return broken_;
  if (Status st = WriteFrame(fd_, static_cast<uint16_t>(id), body);
      !st.ok()) {
    broken_ = st;
    return st;
  }
  Frame reply;
  if (Status st = ReadFrame(fd_, reply); !st.ok()) {
    broken_ = st.code() == StatusCode::kNotFound
                  ? Status::IoError("server closed the connection")
                  : st;
    return broken_;
  }
  std::istringstream in(reply.body);
  MINOAN_RETURN_IF_ERROR(ReadStatusPrefix(in));
  const std::streampos tg = in.tellg();
  const size_t pos =
      tg < 0 ? reply.body.size() : static_cast<size_t>(tg);
  return reply.body.substr(pos);
}

Result<uint64_t> Client::CreateSession(std::string_view tenant,
                                       SessionKind kind,
                                       std::string_view source,
                                       double threshold,
                                       bool use_same_as_seeds,
                                       uint32_t num_threads) {
  std::ostringstream body;
  serde::WriteString(body, tenant);
  serde::WriteU8(body, static_cast<uint8_t>(kind));
  serde::WriteString(body, source);
  serde::WriteDouble(body, threshold);
  serde::WriteU8(body, use_same_as_seeds ? 1 : 0);
  serde::WriteU32(body, num_threads);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kCreateSession, body.str()));
  std::istringstream in(reply);
  uint64_t id = 0;
  if (!serde::ReadU64(in, id)) {
    return Status::ParseError("truncated CreateSession reply");
  }
  return id;
}

namespace {
Result<StepReply> ParseStepReply(const std::string& reply) {
  std::istringstream in(reply);
  StepReply out;
  uint8_t finished = 0;
  uint8_t exhausted = 0;
  if (!serde::ReadU64(in, out.comparisons) ||
      !serde::ReadU64(in, out.matches) || !serde::ReadU8(in, finished) ||
      !serde::ReadU8(in, exhausted) ||
      !serde::ReadU64(in, out.total_comparisons) ||
      !serde::ReadU64(in, out.total_matches)) {
    return Status::ParseError("truncated Step reply");
  }
  out.finished = finished != 0;
  out.exhausted = exhausted != 0;
  return out;
}
}  // namespace

Result<StepReply> Client::Step(uint64_t session, uint64_t budget) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  serde::WriteU64(body, budget);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kStep, body.str()));
  return ParseStepReply(reply);
}

Result<StepReply> Client::ResolveBudget(uint64_t session, uint64_t budget) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  serde::WriteU64(body, budget);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kResolveBudget, body.str()));
  return ParseStepReply(reply);
}

Result<std::vector<MatchEvent>> Client::Matches(uint64_t session,
                                                uint64_t since) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  serde::WriteU64(body, since);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kMatches, body.str()));
  std::istringstream in(reply);
  uint32_t count = 0;
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated Matches reply");
  }
  std::vector<MatchEvent> matches;
  matches.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    MatchEvent m{};
    if (!serde::ReadU32(in, m.a) || !serde::ReadU32(in, m.b) ||
        !serde::ReadU64(in, m.comparisons_done) ||
        !serde::ReadDouble(in, m.similarity)) {
      return Status::ParseError("truncated Matches reply");
    }
    matches.push_back(m);
  }
  return matches;
}

Result<uint64_t> Client::Checkpoint(uint64_t session) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kCheckpoint, body.str()));
  std::istringstream in(reply);
  uint64_t bytes = 0;
  if (!serde::ReadU64(in, bytes)) {
    return Status::ParseError("truncated Checkpoint reply");
  }
  return bytes;
}

Status Client::Close(uint64_t session) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  return Call(MessageId::kClose, body.str()).status();
}

Result<std::vector<EntityId>> Client::Ingest(uint64_t session,
                                             std::string_view kb_name,
                                             std::string_view ntriples) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  serde::WriteString(body, kb_name);
  serde::WriteString(body, ntriples);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kIngest, body.str()));
  std::istringstream in(reply);
  uint32_t count = 0;
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated Ingest reply");
  }
  std::vector<EntityId> ids;
  ids.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    EntityId id = 0;
    if (!serde::ReadU32(in, id)) {
      return Status::ParseError("truncated Ingest reply");
    }
    ids.push_back(id);
  }
  return ids;
}

Result<std::vector<online::QueryCandidate>> Client::Query(uint64_t session,
                                                          EntityId entity,
                                                          uint32_t k) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  serde::WriteU32(body, entity);
  serde::WriteU32(body, k);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kQuery, body.str()));
  std::istringstream in(reply);
  uint32_t count = 0;
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated Query reply");
  }
  std::vector<online::QueryCandidate> candidates;
  candidates.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    online::QueryCandidate c{};
    uint8_t matched = 0;
    if (!serde::ReadU32(in, c.id) || !serde::ReadDouble(in, c.similarity) ||
        !serde::ReadU8(in, matched)) {
      return Status::ParseError("truncated Query reply");
    }
    c.matched = matched != 0;
    candidates.push_back(c);
  }
  return candidates;
}

Result<std::string> Client::Links(uint64_t session) {
  std::ostringstream body;
  serde::WriteU64(body, session);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kLinks, body.str()));
  std::istringstream in(reply);
  std::string text;
  if (!serde::ReadString(in, text, kMaxFrameBytes)) {
    return Status::ParseError("truncated Links reply");
  }
  return text;
}

Result<StatsFullReply> Client::StatsFull() {
  std::ostringstream body;
  serde::WriteU8(body, kStatsBodyV2);
  MINOAN_ASSIGN_OR_RETURN(std::string reply,
                          Call(MessageId::kStats, body.str()));
  std::istringstream in(reply);
  StatsFullReply out;
  uint8_t version = 0;
  if (!serde::ReadU8(in, version)) {
    return Status::ParseError("truncated StatsFull reply");
  }
  if (version != kStatsBodyV2) {
    return Status::ParseError("unexpected stats body version " +
                              std::to_string(version));
  }
  if (!serde::ReadU64(in, out.live_sessions) ||
      !serde::ReadU64(in, out.total_sessions)) {
    return Status::ParseError("truncated StatsFull reply");
  }
  uint32_t count = 0;
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated StatsFull counters");
  }
  out.counters.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!serde::ReadString(in, name, 1 << 10) || !serde::ReadU64(in, value)) {
      return Status::ParseError("truncated StatsFull counters");
    }
    out.counters.emplace_back(std::move(name), value);
  }
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated StatsFull gauges");
  }
  out.gauges.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!serde::ReadString(in, name, 1 << 10) || !serde::ReadU64(in, value)) {
      return Status::ParseError("truncated StatsFull gauges");
    }
    out.gauges.emplace_back(std::move(name), static_cast<int64_t>(value));
  }
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated StatsFull histograms");
  }
  out.histograms.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    HistogramStats h;
    if (!serde::ReadString(in, name, 1 << 10) || !serde::ReadU64(in, h.count) ||
        !serde::ReadU64(in, h.sum) || !serde::ReadU64(in, h.min) ||
        !serde::ReadU64(in, h.max) || !serde::ReadDouble(in, h.p50) ||
        !serde::ReadDouble(in, h.p95) || !serde::ReadDouble(in, h.p99)) {
      return Status::ParseError("truncated StatsFull histograms");
    }
    out.histograms.emplace_back(std::move(name), h);
  }
  if (!serde::ReadU32(in, count)) {
    return Status::ParseError("truncated StatsFull tenants");
  }
  out.tenants.reserve(serde::ClampedReserve(count));
  for (uint32_t i = 0; i < count; ++i) {
    obs::TenantBreakdown t;
    if (!serde::ReadString(in, t.tenant, 1 << 10) ||
        !serde::ReadU64(in, t.sessions) || !serde::ReadU64(in, t.requests) ||
        !serde::ReadU64(in, t.comparisons) || !serde::ReadU64(in, t.matches) ||
        !serde::ReadU64(in, t.spill_bytes) ||
        !serde::ReadDouble(in, t.p50_request_micros) ||
        !serde::ReadDouble(in, t.p95_request_micros) ||
        !serde::ReadDouble(in, t.p99_request_micros)) {
      return Status::ParseError("truncated StatsFull tenants");
    }
    out.tenants.push_back(std::move(t));
  }
  return out;
}

uint64_t StatsFullReply::CounterValue(std::string_view name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

Status Client::Ping() { return Call(MessageId::kPing, {}).status(); }

}  // namespace server
}  // namespace minoan
