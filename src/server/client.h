// Copyright 2026 The MinoanER Authors.
// Client: the typed library side of the resolution service's wire protocol.
//
// One Client wraps one TCP connection and exposes each request of
// protocol.h as a blocking method returning Result<T>. A transport-level
// failure (torn connection, unframeable reply) poisons the client — every
// later call fails fast with the same kIoError — while a server-side error
// (unknown session, bad argument) is just that call's Status and the
// connection stays usable. Used by the script interpreter (script.h) that
// `minoan connect` runs, and by the lifecycle tests.

#ifndef MINOAN_SERVER_CLIENT_H_
#define MINOAN_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "matching/matcher.h"
#include "obs/report.h"
#include "online/online_resolver.h"
#include "server/protocol.h"
#include "util/status.h"

namespace minoan {
namespace server {

/// Reply of Step / ResolveBudget.
struct StepReply {
  uint64_t comparisons = 0;  // spent by this call
  uint64_t matches = 0;      // confirmed by this call
  bool finished = false;
  bool exhausted = false;
  uint64_t total_comparisons = 0;  // session lifetime
  uint64_t total_matches = 0;
};

/// One histogram summary of the full (v2) stats body.
struct HistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Reply of StatsFull: the whole metrics-registry snapshot plus the
/// per-tenant breakdown (kStats v2 body, protocol.h).
struct StatsFullReply {
  uint64_t live_sessions = 0;
  uint64_t total_sessions = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;
  std::vector<obs::TenantBreakdown> tenants;

  /// Counter value by name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
};

class Client {
 public:
  /// Connects to a running server (IPv4 host, e.g. "127.0.0.1").
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// CreateSession. `source` as in protocol.h ("dir:<path>" /
  /// "synthetic:<seed>:<entities>:<kbs>:<center>"; empty for a cold online
  /// session).
  Result<uint64_t> CreateSession(std::string_view tenant, SessionKind kind,
                                 std::string_view source, double threshold,
                                 bool use_same_as_seeds = false,
                                 uint32_t num_threads = 1);

  /// Step (batch sessions). budget 0 = run to finished.
  Result<StepReply> Step(uint64_t session, uint64_t budget);
  /// ResolveBudget (online sessions).
  Result<StepReply> ResolveBudget(uint64_t session, uint64_t budget);

  /// Cumulative match log from index `since` on.
  Result<std::vector<MatchEvent>> Matches(uint64_t session,
                                          uint64_t since = 0);

  /// Forces a server-side checkpoint; returns bytes written.
  Result<uint64_t> Checkpoint(uint64_t session);

  Status Close(uint64_t session);

  /// Ingests an N-Triples document into an online session; returns the new
  /// entity ids.
  Result<std::vector<EntityId>> Ingest(uint64_t session,
                                       std::string_view kb_name,
                                       std::string_view ntriples);

  /// Top-k candidates for one entity of an online session.
  Result<std::vector<online::QueryCandidate>> Query(uint64_t session,
                                                    EntityId entity,
                                                    uint32_t k);

  /// The owl:sameAs N-Triples text of the session's clustered matches.
  Result<std::string> Links(uint64_t session);

  /// The full stats body (registry snapshot + per-tenant breakdown).
  Result<StatsFullReply> StatsFull();
  Status Ping();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// One round trip: frame out, frame in, status prefix parsed; returns
  /// the remaining result body.
  Result<std::string> Call(MessageId id, std::string_view body);

  int fd_;
  /// First transport error; every later Call repeats it.
  Status broken_;
};

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_CLIENT_H_
