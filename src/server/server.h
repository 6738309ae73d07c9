// Copyright 2026 The MinoanER Authors.
// Server: the TCP front end of resolution-as-a-service (`minoan serve`).
//
// One process hosts many tenants' sessions behind the length-prefixed
// protocol of protocol.h. The moving parts:
//
//   - an accept loop (own thread) handing each connection to a handler
//     thread; a connection is a plain request/response stream, and any
//     number of connections may address the same session id;
//   - a SessionManager holding every session, LRU-evicting past the live
//     cap and (with evict_after_seconds) checkpointing idle sessions —
//     a background sweeper thread runs the idle scan;
//   - a FairShare gate in front of every expensive request: Step and
//     ResolveBudget bodies are sliced into `installment`-sized
//     sub-budgets, each admitted separately and run on the connection
//     thread the gate admitted, so a tenant stepping millions of
//     comparisons interleaves with — never starves — a tenant stepping
//     thousands. Slicing is invisible in the results: Step(n/2) twice is
//     byte-identical to Step(n) (the session contract);
//   - one message table (server.cc) naming, per wire message, its span
//     label, its request counter, whether its body starts with the
//     session id, and its handler.
//
// Determinism: for a fixed corpus, options, and request sequence per
// session, every reply is byte-identical regardless of thread count,
// concurrent tenants, eviction timing, or installment size.
//
// Metrics (out-of-band): server.requests.<kind> counters,
// server.request_micros histogram, server.comparisons counter, and the
// SessionManager's server.sessions.* family. On top of those process-wide
// signals sits the live observability plane:
//
//   - per-tenant attribution: each tenant gets an obs::ScopedRegistry whose
//     dual-write handles mirror server.comparisons / server.matches into a
//     tenant-local shadow, so per-tenant sums reconcile exactly against the
//     process totals (TenantBreakdowns / the kStats v2 body);
//   - per-request tracing: every dispatch runs under a PhaseSpan named
//     "<kind> rid=<request id> sid=<session id>" feeding an optional
//     bounded TraceRecorder (written as Chrome-trace JSON at shutdown);
//   - a structured EventLog (slow_request, session_evicted/restored/
//     closed, checkpoint/restore failures) exported as JSONL;
//   - a background exporter thread rewriting the stats snapshot every
//     stats_every_seconds via temp-file + atomic rename, so readers never
//     observe a torn file.
//
// All of it observes and none of it steers: results are byte-identical
// with the whole plane on or off (ObsParityTest covers the served path).

#ifndef MINOAN_SERVER_SERVER_H_
#define MINOAN_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "server/fair_share.h"
#include "server/session_manager.h"
#include "server/wire.h"
#include "util/status.h"

namespace minoan {
namespace server {

struct ServerOptions {
  /// Listen address. Port 0 picks an ephemeral port (tests, CI) — read the
  /// chosen one back with port().
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Live-session cap (LRU-evicts beyond it) and idle-eviction horizon.
  size_t max_sessions = 64;
  double evict_after_seconds = 0;
  /// Checkpoint directory for evicted sessions.
  std::string state_dir = "/tmp/minoan-serve";
  /// Fair-share slots: how many installments run at once, each on the
  /// connection thread it was admitted on (0 = hardware concurrency).
  uint32_t num_threads = 1;
  /// Comparisons per admitted installment: the fairness quantum. Smaller =
  /// tighter interleaving, more gate traffic.
  uint64_t installment = 2048;

  /// Rolling stats export: when stats_path is set, the final snapshot is
  /// written at shutdown; with stats_every_seconds > 0 an exporter thread
  /// also rewrites it on that period (temp file + atomic rename — a reader
  /// never sees a torn snapshot). minoan-stats-v1 schema with the
  /// per-tenant breakdown populated.
  std::string stats_path;
  double stats_every_seconds = 0;
  /// Per-request tracing: record every dispatch as a PhaseSpan. Implied by
  /// a non-empty trace_path (Chrome-trace JSON written at shutdown);
  /// enable_trace alone keeps the recorder in memory for tests.
  std::string trace_path;
  bool enable_trace = false;
  /// JSONL event log (slow requests, evictions, restores, failures),
  /// rolled with the stats snapshots and written at shutdown.
  std::string event_log_path;
  /// Requests slower than this log a "slow_request" warn event (0 = off).
  double slow_request_millis = 250;
  /// Ring bounds for the event log and the per-request trace.
  size_t max_events = 4096;
  size_t max_trace_events = 65536;
};

class Server {
 public:
  /// Binds, listens, and starts the accept loop + sweeper. The returned
  /// server is running.
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  /// Stops accepting, closes live connections, joins every thread. Safe to
  /// call twice; the destructor calls it.
  void Shutdown();
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick).
  uint16_t port() const { return port_; }
  const ServerOptions& options() const { return options_; }
  SessionManager& sessions() { return sessions_; }

  /// Everything the server observed so far: the registry snapshot, the
  /// per-tenant breakdown, and peak RSS. The exporter thread, the shutdown
  /// snapshot, and the kStats v2 body all go through this one builder.
  obs::StatsReport BuildStatsReport() const;
  /// Per-tenant attribution, tenant-name sorted.
  std::vector<obs::TenantBreakdown> TenantBreakdowns() const;

  /// Writes the stats snapshot and event log to their configured paths via
  /// temp file + atomic rename. No-op for unset paths.
  Status ExportSnapshots() const;

  /// The per-request trace (null unless tracing is enabled) and the
  /// structured event log.
  const obs::TraceRecorder* trace() const { return trace_.get(); }
  obs::EventLog& events() { return events_; }

  /// Blocks until Shutdown() is called (the serve loop's main thread).
  void Wait();

 private:
  explicit Server(ServerOptions options);

  /// Everything a handler learns about the request it is serving, used
  /// after dispatch for span naming, tenant attribution, and slow-request
  /// events. session_id / tenant stay 0 / empty when not applicable.
  struct RequestContext {
    uint64_t request_id = 0;
    uint64_t session_id = 0;
    std::string tenant;
  };
  struct TenantStats;
  struct Route;
  /// The message table's row for `id` (a shared fallback row for unknown
  /// ids).
  static const Route& RouteFor(uint16_t id);

  void AcceptLoop();
  void SweeperLoop();
  void ExporterLoop();
  void HandleConnection(int fd);
  /// Decodes one request frame and produces the response body. Never
  /// throws: what a handler throws becomes a kInternal error response.
  std::string Dispatch(const Frame& frame);

  std::string HandleCreateSession(std::istream& body, RequestContext& ctx);
  std::string HandleStep(std::istream& body, RequestContext& ctx);
  std::string HandleResolveBudget(std::istream& body, RequestContext& ctx);
  std::string StepInstallments(std::istream& body, bool online,
                               RequestContext& ctx);
  std::string HandleMatches(std::istream& body, RequestContext& ctx);
  std::string HandleCheckpoint(std::istream& body, RequestContext& ctx);
  std::string HandleClose(std::istream& body, RequestContext& ctx);
  std::string HandleIngest(std::istream& body, RequestContext& ctx);
  std::string HandleQuery(std::istream& body, RequestContext& ctx);
  std::string HandleLinks(std::istream& body, RequestContext& ctx);
  std::string HandleStats(std::istream& body, RequestContext& ctx);
  std::string HandlePing(std::istream& body, RequestContext& ctx);

  /// The tenant's scoped-metric bundle, created on first use.
  TenantStats& TenantFor(const std::string& tenant);

  /// Runs `fn` as one fair-share installment on the calling thread once
  /// the gate admits `tenant`, charging it the cost fn reports. The slot is
  /// released on every exit path; what fn throws propagates to Dispatch.
  void RunInstallment(const std::string& tenant,
                      const std::function<uint64_t()>& fn);

  const ServerOptions options_;
  SessionManager sessions_;
  FairShare fair_share_;

  std::unique_ptr<obs::TraceRecorder> trace_;
  obs::EventLog events_;
  std::atomic<uint64_t> next_request_id_{1};
  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantStats>, std::less<>> tenants_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread sweeper_thread_;
  std::thread exporter_thread_;
  std::mutex conn_mu_;
  /// Connection handlers not yet joined: the live ones and those that
  /// finished since the last accept (the accept loop joins those before it
  /// adds the next handler; Shutdown joins the rest).
  std::vector<std::thread> conn_threads_;
  /// Handlers that returned and await their join, recorded under conn_mu_.
  std::vector<std::thread::id> finished_conns_;
  /// Open connection descriptors: a handler erases its fd under conn_mu_
  /// before closing it, so Shutdown never touches a recycled number.
  std::vector<int> conn_fds_;
  std::condition_variable shutdown_cv_;
  bool shut_down_ = false;
};

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_SERVER_H_
