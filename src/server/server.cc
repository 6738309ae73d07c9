#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>

#include "matching/matcher.h"
#include "obs/metrics.h"
#include "online/incremental_collection.h"
#include "rdf/ntriples.h"
#include "server/protocol.h"
#include "server/wire.h"
#include "util/atomic_file.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {
namespace server {

namespace {

obs::Histogram& RequestMicros() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Default().histogram("server.request_micros");
  return h;
}

obs::Counter& SpillBytesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("spill.bytes");
  return c;
}

/// Error-only response for a body that ended early.
std::string Truncated(const char* what) {
  return ErrorBody(Status::ParseError(std::string("truncated ") + what +
                                      " request body"));
}

}  // namespace

/// One row of the message table.
struct Server::Route {
  MessageId id;
  /// Span label ("<kind> rid=… sid=…") and slow-request event field.
  const char* kind;
  /// Request counter, registered on the first request that bumps it.
  const char* counter;
  /// The body starts with the u64 session id, peeked for the span label
  /// before the handler parses it.
  bool session_first;
  /// Null for ids outside the protocol.
  std::string (Server::*handle)(std::istream& body, RequestContext& ctx);
};

/// The message table: one row per wire message drives dispatch, request
/// counters, span labels and session-id peeking. Ids outside the protocol
/// get kUnknown (counted as server.requests.other, answered Unimplemented).
const Server::Route& Server::RouteFor(uint16_t id) {
  static constexpr Route kUnknown{MessageId{0}, "other",
                                  "server.requests.other", false, nullptr};
  static constexpr Route kRoutes[] = {
      {MessageId::kCreateSession, "create", "server.requests.create", false,
       &Server::HandleCreateSession},
      {MessageId::kStep, "step", "server.requests.step", true,
       &Server::HandleStep},
      {MessageId::kMatches, "matches", "server.requests.matches", true,
       &Server::HandleMatches},
      {MessageId::kCheckpoint, "checkpoint", "server.requests.checkpoint",
       true, &Server::HandleCheckpoint},
      {MessageId::kClose, "close", "server.requests.close", true,
       &Server::HandleClose},
      {MessageId::kIngest, "ingest", "server.requests.ingest", true,
       &Server::HandleIngest},
      {MessageId::kResolveBudget, "resolve", "server.requests.resolve", true,
       &Server::HandleResolveBudget},
      {MessageId::kQuery, "query", "server.requests.query", true,
       &Server::HandleQuery},
      {MessageId::kLinks, "links", "server.requests.links", true,
       &Server::HandleLinks},
      {MessageId::kStats, "stats", "server.requests.other", false,
       &Server::HandleStats},
      {MessageId::kPing, "ping", "server.requests.other", false,
       &Server::HandlePing},
  };
  for (const Route& route : kRoutes) {
    if (static_cast<uint16_t>(route.id) == id) return route;
  }
  return kUnknown;
}

/// One tenant's metric bundle. The dual-write handles mirror the process
/// server.comparisons / server.matches counters into the tenant's scoped
/// shadow (one extra relaxed add per installment, never per element); the
/// plain members are local-only because their process-wide counterparts are
/// incremented elsewhere (SessionManager, Dispatch) and a dual write would
/// double-count.
struct Server::TenantStats {
  explicit TenantStats(std::string label)
      : scoped(&obs::MetricsRegistry::Default(), std::move(label)),
        sessions(scoped.counter("server.sessions.created")),
        requests(scoped.counter("server.requests")),
        spill_bytes(scoped.counter("server.spill_bytes")),
        comparisons_local(scoped.counter("server.comparisons")),
        matches_local(scoped.counter("server.matches")),
        request_micros(scoped.histogram("server.request_micros")),
        comparisons(scoped.scoped_counter("server.comparisons")),
        matches(scoped.scoped_counter("server.matches")) {}

  obs::ScopedRegistry scoped;
  obs::Counter& sessions;
  obs::Counter& requests;
  obs::Counter& spill_bytes;
  obs::Counter& comparisons_local;
  obs::Counter& matches_local;
  obs::Histogram& request_micros;
  obs::ScopedCounter comparisons;
  obs::ScopedCounter matches;
};

Server::Server(ServerOptions options)
    : options_(options),
      sessions_(SessionManager::Options{options.state_dir,
                                        options.max_sessions,
                                        options.evict_after_seconds}),
      fair_share_(ResolveThreadCount(options.num_threads)),
      events_(obs::EventLog::Options{options.max_events,
                                     obs::Severity::kInfo}) {
  if (options_.enable_trace || !options_.trace_path.empty()) {
    trace_ = std::make_unique<obs::TraceRecorder>();
    trace_->set_capacity(options_.max_trace_events);
  }
  sessions_.set_event_log(&events_);
}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(options));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse listen address " +
                                   options.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st = Status::IoError("bind " + options.host + ":" +
                                      std::to_string(options.port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const Status st =
        Status::IoError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);

  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  if (options.evict_after_seconds > 0) {
    server->sweeper_thread_ =
        std::thread([s = server.get()] { s->SweeperLoop(); });
  }
  if (options.stats_every_seconds > 0 &&
      (!options.stats_path.empty() || !options.event_log_path.empty())) {
    server->exporter_thread_ =
        std::thread([s = server.get()] { s->ExporterLoop(); });
  }
  return server;
}

Server::~Server() { Shutdown(); }

void Server::Wait() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  shutdown_cv_.wait(lock, [this] { return shut_down_; });
}

void Server::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller: wait for the first to finish tearing down.
    Wait();
    return;
  }
  // Unblock accept() and every connection's blocking read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    shutdown_cv_.notify_all();  // wakes the sweeper
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (sweeper_thread_.joinable()) sweeper_thread_.join();
  if (exporter_thread_.joinable()) exporter_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Final installment of the rolling exports, now that every handler has
  // drained; losing a telemetry write must not fail shutdown.
  (void)ExportSnapshots();
  if (!options_.trace_path.empty() && trace_ != nullptr) {
    (void)WriteFileAtomic(options_.trace_path, [&](std::ostream& out) {
      trace_->WriteChromeTrace(out);
      return Status::Ok();
    });
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  shut_down_ = true;
  shutdown_cv_.notify_all();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      // Hand the finished handlers over for joining, so a long-lived
      // daemon holds a thread only per open connection.
      for (const std::thread::id id : finished_conns_) {
        const auto it = std::find_if(
            conn_threads_.begin(), conn_threads_.end(),
            [id](const std::thread& t) { return t.get_id() == id; });
        finished.push_back(std::move(*it));
        conn_threads_.erase(it);
      }
      finished_conns_.clear();
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
    }
    // Each has recorded its finish as its last step under the lock.
    for (std::thread& t : finished) t.join();
  }
}

void Server::SweeperLoop() {
  const double period_s =
      std::max(0.05, std::min(1.0, options_.evict_after_seconds / 4.0));
  std::unique_lock<std::mutex> lock(conn_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    shutdown_cv_.wait_for(
        lock, std::chrono::duration<double>(period_s),
        [this] { return stopping_.load(std::memory_order_relaxed); });
    if (stopping_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    sessions_.EvictIdle();
    lock.lock();
  }
}

void Server::ExporterLoop() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    shutdown_cv_.wait_for(
        lock, std::chrono::duration<double>(options_.stats_every_seconds),
        [this] { return stopping_.load(std::memory_order_relaxed); });
    if (stopping_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    // Rolling installment; shutdown writes the authoritative final one.
    (void)ExportSnapshots();
    lock.lock();
  }
}

void Server::HandleConnection(int fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Frame frame;
    const Status read = ReadFrame(fd, frame);
    if (!read.ok()) {
      // A hostile length prefix leaves the stream unframed: answer once if
      // the transport still works, then drop the connection. Clean EOF and
      // torn connections just close.
      if (read.code() == StatusCode::kParseError) {
        (void)WriteFrame(fd, 0, ErrorBody(read));
      }
      break;
    }
    std::string response;
    if (frame.version != kProtocolVersion) {
      response = ErrorBody(Status::FailedPrecondition(
          "protocol version " + std::to_string(frame.version) +
          " not supported (server speaks " +
          std::to_string(kProtocolVersion) + ")"));
    } else {
      response = Dispatch(frame);
    }
    if (!WriteFrame(fd, frame.id, response).ok()) break;
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  std::erase(conn_fds_, fd);
  ::close(fd);
  finished_conns_.push_back(std::this_thread::get_id());
}

std::string Server::Dispatch(const Frame& frame) {
  const auto start = std::chrono::steady_clock::now();
  const Route& route = RouteFor(frame.id);
  obs::MetricsRegistry::Default().counter(route.counter).Increment();
  RequestContext ctx;
  ctx.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (route.session_first && frame.body.size() >= sizeof(uint64_t)) {
    // Little-endian, as serde writes it: the span carries the session tag
    // even though the handler has not parsed the body yet.
    std::memcpy(&ctx.session_id, frame.body.data(), sizeof(uint64_t));
  }
  std::istringstream body(frame.body);
  std::string response;
  {
    // The whole handler runs under one span tagged with the request id and
    // (when the body addresses one) the session id, so a trace shows each
    // request's wall time and the counters it advanced.
    std::optional<obs::PhaseSpan> span;
    if (trace_ != nullptr) {
      std::string name = route.kind;
      name += " rid=" + std::to_string(ctx.request_id);
      if (ctx.session_id != 0) {
        name += " sid=" + std::to_string(ctx.session_id);
      }
      span.emplace(trace_.get(), std::move(name));
    }
    if (route.handle == nullptr) {
      response = ErrorBody(Status::Unimplemented(
          "unknown message id " + std::to_string(frame.id)));
    } else {
      // A throw (bad_alloc on a huge document or synthetic source, a
      // system_error spawning a session's pool) fails this request only;
      // RunInstallment's slot has already been released by then.
      try {
        response = (this->*route.handle)(body, ctx);
      } catch (const std::exception& e) {
        response = ErrorBody(Status::Internal(std::string(route.kind) +
                                              " request failed: " + e.what()));
      } catch (...) {
        response = ErrorBody(
            Status::Internal(std::string(route.kind) + " request failed"));
      }
    }
  }
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  RequestMicros().Record(micros);
  if (!ctx.tenant.empty()) {
    TenantStats& tenant = TenantFor(ctx.tenant);
    tenant.requests.Increment();
    tenant.request_micros.Record(micros);
  }
  if (options_.slow_request_millis > 0 &&
      static_cast<double>(micros) > options_.slow_request_millis * 1000.0) {
    events_.Log(obs::Severity::kWarn, "slow_request",
                {{"request", route.kind}, {"tenant", ctx.tenant}},
                {{"request_id", ctx.request_id},
                 {"session", ctx.session_id},
                 {"micros", micros}});
  }
  return response;
}

Server::TenantStats& Server::TenantFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, std::make_unique<TenantStats>(tenant)).first;
  }
  return *it->second;
}

void Server::RunInstallment(const std::string& tenant,
                            const std::function<uint64_t()>& fn) {
  uint64_t cost = 0;
  uint64_t spill_before = 0;
  {
    FairShare::Slot slot = fair_share_.Acquire(tenant);
    spill_before = SpillBytesCounter().Value();
    cost = fn();
    slot.Charge(cost);
  }
  TenantStats& stats = TenantFor(tenant);
  // The dual write lands in the process server.comparisons counter AND the
  // tenant shadow, so the per-tenant sum reconciles exactly.
  stats.comparisons.Add(cost);
  // Spill attribution is delta-sampled around the installment: exact when
  // one installment runs at a time, an upper bound under overlap.
  const uint64_t spill_after = SpillBytesCounter().Value();
  if (spill_after > spill_before) {
    stats.spill_bytes.Add(spill_after - spill_before);
  }
}

std::string Server::HandleCreateSession(std::istream& body,
                                        RequestContext& ctx) {
  SessionSpec spec;
  uint8_t kind = 0;
  uint8_t seeds = 0;
  uint32_t threads = 1;
  if (!serde::ReadString(body, spec.tenant, 1 << 10) ||
      !serde::ReadU8(body, kind) ||
      !serde::ReadString(body, spec.source, 1 << 12) ||
      !serde::ReadDouble(body, spec.threshold) ||
      !serde::ReadU8(body, seeds) || !serde::ReadU32(body, threads)) {
    return Truncated("CreateSession");
  }
  if (kind > 1) {
    return ErrorBody(Status::InvalidArgument("session kind must be 0 or 1"));
  }
  if (spec.tenant.empty()) {
    return ErrorBody(Status::InvalidArgument("tenant must not be empty"));
  }
  if (!std::isfinite(spec.threshold) || spec.threshold < 0 ||
      spec.threshold > 1) {
    return ErrorBody(
        Status::InvalidArgument("threshold must be a finite value in [0, 1]"));
  }
  if (threads > 1024) {
    return ErrorBody(Status::InvalidArgument("num_threads must be <= 1024"));
  }
  spec.kind = static_cast<SessionKind>(kind);
  spec.use_same_as_seeds = seeds != 0;
  spec.num_threads = threads;
  ctx.tenant = spec.tenant;

  uint64_t id = 0;
  Status status = Status::Ok();
  // Session construction (corpus load + static phases) is expensive work —
  // it goes through the gate like any installment, charged by corpus size.
  RunInstallment(spec.tenant, [&]() -> uint64_t {
    auto created = sessions_.Create(spec);
    if (!created.ok()) {
      status = created.status();
      return 1;
    }
    id = *created;
    return 1;
  });
  if (!status.ok()) return ErrorBody(status);
  ctx.session_id = id;
  // Local-only shadow: SessionManager already counted the process-wide
  // server.sessions.created.
  TenantFor(spec.tenant).sessions.Increment();
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU64(out, id);
  return out.str();
}

std::string Server::HandleStep(std::istream& body, RequestContext& ctx) {
  return StepInstallments(body, /*online=*/false, ctx);
}

std::string Server::HandleResolveBudget(std::istream& body,
                                        RequestContext& ctx) {
  return StepInstallments(body, /*online=*/true, ctx);
}

std::string Server::StepInstallments(std::istream& body, bool online,
                                     RequestContext& ctx) {
  uint64_t session = 0;
  uint64_t budget = 0;
  if (!serde::ReadU64(body, session) || !serde::ReadU64(body, budget)) {
    return Truncated(online ? "ResolveBudget" : "Step");
  }
  ctx.session_id = session;
  auto lease = sessions_.Acquire(session);
  if (!lease.ok()) return ErrorBody(lease.status());
  if (online != (lease->online() != nullptr)) {
    return ErrorBody(Status::FailedPrecondition(
        online ? "ResolveBudget requires an online session"
               : "Step requires a batch session"));
  }
  const std::string tenant = lease->spec().tenant;
  ctx.tenant = tenant;

  // The budget is spent in fair-share installments: each slice is admitted
  // separately, so another tenant's work interleaves between slices. The
  // result is byte-identical to one big Step — the session contract.
  uint64_t call_comparisons = 0;
  uint64_t call_matches = 0;
  bool finished = false;
  bool exhausted = false;
  uint64_t remaining = budget;
  while (true) {
    uint64_t slice = options_.installment == 0 ? 2048 : options_.installment;
    if (budget != 0) {
      if (remaining == 0) break;
      slice = std::min(slice, remaining);
    }
    StepResult step;
    RunInstallment(tenant, [&]() -> uint64_t {
      step = online ? lease->online()->ResolveBudget(slice)
                    : lease->batch()->Step(slice);
      return step.comparisons;
    });
    call_comparisons += step.comparisons;
    call_matches += step.matches.size();
    if (budget != 0) remaining -= std::min(remaining, slice);
    if (online) {
      exhausted = step.exhausted;
      finished = step.exhausted;
    } else {
      exhausted = lease->batch()->exhausted();
      finished = lease->batch()->finished();
    }
    if (finished) break;
    // A slice that spent nothing and did not finish cannot make progress.
    if (step.comparisons == 0) break;
  }
  // Matches mirror comparisons: dual-written to the process server.matches
  // counter and the tenant shadow at the same site.
  if (call_matches > 0) TenantFor(tenant).matches.Add(call_matches);

  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU64(out, call_comparisons);
  serde::WriteU64(out, call_matches);
  serde::WriteU8(out, finished ? 1 : 0);
  serde::WriteU8(out, exhausted ? 1 : 0);
  if (online) {
    serde::WriteU64(out, lease->online()->run().comparisons_executed);
    serde::WriteU64(out, lease->online()->run().matches.size());
  } else {
    serde::WriteU64(out, lease->batch()->comparisons_spent());
    serde::WriteU64(out, lease->batch()->matches_found());
  }
  return out.str();
}

std::string Server::HandleMatches(std::istream& body, RequestContext& ctx) {
  uint64_t session = 0;
  uint64_t since = 0;
  if (!serde::ReadU64(body, session) || !serde::ReadU64(body, since)) {
    return Truncated("Matches");
  }
  ctx.session_id = session;
  auto lease = sessions_.Acquire(session);
  if (!lease.ok()) return ErrorBody(lease.status());
  ctx.tenant = lease->spec().tenant;
  const std::vector<MatchEvent>& matches = lease->matches();
  const size_t begin = std::min<size_t>(since, matches.size());
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU32(out, static_cast<uint32_t>(matches.size() - begin));
  for (size_t i = begin; i < matches.size(); ++i) {
    serde::WriteU32(out, matches[i].a);
    serde::WriteU32(out, matches[i].b);
    serde::WriteU64(out, matches[i].comparisons_done);
    serde::WriteDouble(out, matches[i].similarity);
  }
  return out.str();
}

std::string Server::HandleCheckpoint(std::istream& body, RequestContext& ctx) {
  uint64_t session = 0;
  if (!serde::ReadU64(body, session)) return Truncated("Checkpoint");
  ctx.session_id = session;
  auto bytes = sessions_.Checkpoint(session);
  if (!bytes.ok()) return ErrorBody(bytes.status());
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU64(out, *bytes);
  return out.str();
}

std::string Server::HandleClose(std::istream& body, RequestContext& ctx) {
  uint64_t session = 0;
  if (!serde::ReadU64(body, session)) return Truncated("Close");
  ctx.session_id = session;
  if (Status st = sessions_.Close(session); !st.ok()) return ErrorBody(st);
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  return out.str();
}

std::string Server::HandleIngest(std::istream& body, RequestContext& ctx) {
  uint64_t session = 0;
  std::string kb_name;
  std::string document;
  if (!serde::ReadU64(body, session) ||
      !serde::ReadString(body, kb_name, 1 << 10) ||
      !serde::ReadString(body, document, kMaxFrameBytes)) {
    return Truncated("Ingest");
  }
  ctx.session_id = session;
  auto lease = sessions_.Acquire(session);
  if (!lease.ok()) return ErrorBody(lease.status());
  ctx.tenant = lease->spec().tenant;
  if (lease->online() == nullptr) {
    return ErrorBody(
        Status::FailedPrecondition("Ingest requires an online session"));
  }
  auto triples = rdf::NTriplesParser().ParseString(document);
  if (!triples.ok()) return ErrorBody(triples.status());

  std::vector<EntityId> ids;
  Status status = Status::Ok();
  RunInstallment(lease->spec().tenant, [&]() -> uint64_t {
    online::OnlineResolver& engine = *lease->online();
    const uint64_t before = engine.run().comparisons_executed;
    const uint32_t kb = engine.EnsureKb(kb_name);
    for (const auto& group : online::GroupBySubject(*triples)) {
      auto id = engine.Ingest(kb, group);
      if (!id.ok()) {
        status = id.status();
        break;
      }
      ids.push_back(*id);
    }
    // Ingest itself executes no comparisons; charge the entity count so a
    // bulk-loading tenant still pays its way through the gate.
    return ids.size() + (engine.run().comparisons_executed - before);
  });
  if (!status.ok()) return ErrorBody(status);
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU32(out, static_cast<uint32_t>(ids.size()));
  for (const EntityId id : ids) serde::WriteU32(out, id);
  return out.str();
}

std::string Server::HandleQuery(std::istream& body, RequestContext& ctx) {
  uint64_t session = 0;
  uint32_t entity = 0;
  uint32_t k = 0;
  if (!serde::ReadU64(body, session) || !serde::ReadU32(body, entity) ||
      !serde::ReadU32(body, k)) {
    return Truncated("Query");
  }
  ctx.session_id = session;
  auto lease = sessions_.Acquire(session);
  if (!lease.ok()) return ErrorBody(lease.status());
  ctx.tenant = lease->spec().tenant;
  if (lease->online() == nullptr) {
    return ErrorBody(
        Status::FailedPrecondition("Query requires an online session"));
  }
  std::vector<online::QueryCandidate> candidates;
  RunInstallment(lease->spec().tenant, [&]() -> uint64_t {
    online::OnlineResolver& engine = *lease->online();
    const uint64_t before = engine.run().comparisons_executed;
    candidates = engine.Query(entity, k);
    return engine.run().comparisons_executed - before;
  });
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU32(out, static_cast<uint32_t>(candidates.size()));
  for (const auto& c : candidates) {
    serde::WriteU32(out, c.id);
    serde::WriteDouble(out, c.similarity);
    serde::WriteU8(out, c.matched ? 1 : 0);
  }
  return out.str();
}

std::string Server::HandleLinks(std::istream& body, RequestContext& ctx) {
  uint64_t session = 0;
  if (!serde::ReadU64(body, session)) return Truncated("Links");
  ctx.session_id = session;
  auto lease = sessions_.Acquire(session);
  if (!lease.ok()) return ErrorBody(lease.status());
  ctx.tenant = lease->spec().tenant;
  // The CLI's links writer, so a served run diffs byte-for-byte against
  // `minoan resolve`.
  std::ostringstream text;
  WriteSameAsLinks(lease->matches(), lease->collection(), text);
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteString(out, text.str());
  return out.str();
}

std::string Server::HandlePing(std::istream&, RequestContext&) {
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  return out.str();
}

std::string Server::HandleStats(std::istream& body, RequestContext&) {
  uint8_t version = 0;
  if (!serde::ReadU8(body, version)) return Truncated("Stats");
  if (version != kStatsBodyV2) {
    return ErrorBody(Status::InvalidArgument("unsupported stats body version " +
                                             std::to_string(version)));
  }
  std::ostringstream out;
  WriteStatusPrefix(out, Status::Ok());
  serde::WriteU8(out, kStatsBodyV2);
  serde::WriteU64(out, sessions_.live_sessions());
  serde::WriteU64(out, sessions_.num_sessions());
  const obs::StatsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  serde::WriteU32(out, static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    serde::WriteString(out, name);
    serde::WriteU64(out, value);
  }
  serde::WriteU32(out, static_cast<uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    serde::WriteString(out, name);
    serde::WriteU64(out, static_cast<uint64_t>(value));
  }
  serde::WriteU32(out, static_cast<uint32_t>(snap.histograms.size()));
  for (const auto& [name, histogram] : snap.histograms) {
    serde::WriteString(out, name);
    serde::WriteU64(out, histogram.count);
    serde::WriteU64(out, histogram.sum);
    serde::WriteU64(out, histogram.count > 0 ? histogram.min : 0);
    serde::WriteU64(out, histogram.max);
    serde::WriteDouble(out, histogram.Quantile(0.50));
    serde::WriteDouble(out, histogram.Quantile(0.95));
    serde::WriteDouble(out, histogram.Quantile(0.99));
  }
  const std::vector<obs::TenantBreakdown> tenants = TenantBreakdowns();
  serde::WriteU32(out, static_cast<uint32_t>(tenants.size()));
  for (const obs::TenantBreakdown& tenant : tenants) {
    serde::WriteString(out, tenant.tenant);
    serde::WriteU64(out, tenant.sessions);
    serde::WriteU64(out, tenant.requests);
    serde::WriteU64(out, tenant.comparisons);
    serde::WriteU64(out, tenant.matches);
    serde::WriteU64(out, tenant.spill_bytes);
    serde::WriteDouble(out, tenant.p50_request_micros);
    serde::WriteDouble(out, tenant.p95_request_micros);
    serde::WriteDouble(out, tenant.p99_request_micros);
  }
  return out.str();
}

std::vector<obs::TenantBreakdown> Server::TenantBreakdowns() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<obs::TenantBreakdown> out;
  out.reserve(tenants_.size());
  for (const auto& [name, stats] : tenants_) {
    obs::TenantBreakdown breakdown;
    breakdown.tenant = name;
    breakdown.sessions = stats->sessions.Value();
    breakdown.requests = stats->requests.Value();
    breakdown.comparisons = stats->comparisons_local.Value();
    breakdown.matches = stats->matches_local.Value();
    breakdown.spill_bytes = stats->spill_bytes.Value();
    const obs::HistogramSnapshot latency = stats->request_micros.Snapshot();
    breakdown.p50_request_micros = latency.Quantile(0.50);
    breakdown.p95_request_micros = latency.Quantile(0.95);
    breakdown.p99_request_micros = latency.Quantile(0.99);
    out.push_back(std::move(breakdown));
  }
  return out;
}

obs::StatsReport Server::BuildStatsReport() const {
  obs::StatsReport report;
  report.metrics = obs::MetricsRegistry::Default().Snapshot();
  report.tenants = TenantBreakdowns();
  report.peak_rss_bytes = obs::PeakRssBytes();
  return report;
}

Status Server::ExportSnapshots() const {
  // Through the one atomic writer: a scraper reading a rolling snapshot
  // never sees a torn file.
  if (!options_.stats_path.empty()) {
    MINOAN_RETURN_IF_ERROR(
        WriteFileAtomic(options_.stats_path, [&](std::ostream& out) {
          obs::WriteStatsJson(out, BuildStatsReport());
          return Status::Ok();
        }).status());
  }
  if (!options_.event_log_path.empty()) {
    MINOAN_RETURN_IF_ERROR(
        WriteFileAtomic(options_.event_log_path, [&](std::ostream& out) {
          events_.WriteJsonl(out);
          return Status::Ok();
        }).status());
  }
  return Status::Ok();
}

}  // namespace server
}  // namespace minoan
