// Copyright 2026 The MinoanER Authors.
// EventLog: a bounded, severity-filtered ring of structured events for the
// rare-but-interesting moments of a long-running process — slow requests,
// session evictions and restores, checkpoint failures. Counters answer "how
// much"; the event log answers "what happened, to whom, when".
//
// Same out-of-band contract as the metrics registry: appending never
// influences results, the ring is bounded (oldest events drop, with a
// counter saying how many), and the whole log serializes as JSONL — one
// self-contained JSON object per line, so `tail -f` and `jq` both work on
// a partially written file.

#ifndef MINOAN_OBS_EVENT_LOG_H_
#define MINOAN_OBS_EVENT_LOG_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace minoan {
namespace obs {

enum class Severity : uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// Lowercase wire name ("info" / "warn" / "error").
std::string_view SeverityName(Severity severity);

/// One structured event. `text` and `values` keep insertion order and land
/// as top-level JSON fields after the reserved ts_us/severity/kind trio.
struct Event {
  uint64_t ts_us = 0;  ///< Microseconds since the log's construction.
  Severity severity = Severity::kInfo;
  std::string kind;  ///< e.g. "slow_request", "session_evicted".
  std::vector<std::pair<std::string, std::string>> text;
  std::vector<std::pair<std::string, uint64_t>> values;
};

class EventLog {
 public:
  struct Options {
    /// Ring capacity; the oldest event drops when full (see dropped()).
    size_t max_events = 4096;
    /// Events below this severity are discarded at append time.
    Severity min_severity = Severity::kInfo;
  };

  EventLog() : EventLog(Options()) {}
  explicit EventLog(Options options);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Stamps ts_us and appends. The usual entry point.
  void Log(Severity severity, std::string kind,
           std::vector<std::pair<std::string, std::string>> text = {},
           std::vector<std::pair<std::string, uint64_t>> values = {});

  /// Appends a caller-built event verbatim (ts_us included) — the severity
  /// filter and ring bound still apply. Tests use this for determinism.
  void Append(Event event);

  std::vector<Event> snapshot() const;
  size_t size() const;
  /// Events evicted from the ring because it was full.
  uint64_t dropped() const;
  /// Events discarded because they were below min_severity.
  uint64_t filtered() const;

  /// One JSON object per line, oldest first:
  ///   {"ts_us":N,"severity":"warn","kind":"slow_request",
  ///    <text...>,<values...>}
  void WriteJsonl(std::ostream& out) const;

 private:
  const Options options_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<Event> events_;
  uint64_t dropped_ = 0;
  uint64_t filtered_ = 0;
};

}  // namespace obs
}  // namespace minoan

#endif  // MINOAN_OBS_EVENT_LOG_H_
