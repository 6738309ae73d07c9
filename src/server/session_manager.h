// Copyright 2026 The MinoanER Authors.
// SessionManager: the multi-tenant session store of the resolution service.
//
// Each session wraps either a batch ResolutionSession (pay-as-you-go over a
// frozen corpus) or an OnlineResolver (ingest/resolve/query). The manager
// owns their lifecycle:
//
//   Create   — builds the session from a SessionSpec (corpus source +
//              options) and assigns a dense u64 id.
//   Acquire  — hands out an exclusive Lease on one session. If the session
//              was evicted, Acquire transparently restores it from its
//              checkpoint file first — callers never observe eviction
//              except as latency.
//   Evict    — checkpoints the least-recently-used idle sessions to
//              `state_dir/session-<id>.ckpt` and frees their memory. Runs
//              automatically when live sessions exceed `max_live_sessions`
//              (LRU) and on EvictIdle() for sessions idle longer than
//              `evict_after` (the serve loop sweeps periodically).
//   Close    — drops the session and deletes its checkpoint file.
//
// Eviction is invisible to results by construction: a batch checkpoint
// restores byte-identically over the deterministically rebuilt corpus
// (sources are server-local directories or synthetic seeds, both
// reproducible), and an online state is fully self-contained since
// MNER-ONLN-v2 embeds the collection. Corpora are shared across sessions
// through a by-source cache, so ten tenants over one directory load it
// once.
//
// Metrics (out-of-band, obs::MetricsRegistry::Default()):
//   server.sessions.created / evicted / restored / closed — counters
//   server.sessions.live                                  — gauge
//   server.checkpoint_bytes                               — histogram
//
// Lifecycle moments (evict, restore, close, checkpoint/restore failures)
// additionally land in an optional obs::EventLog (set_event_log) as
// structured JSONL events tagged with tenant and session id.

#ifndef MINOAN_SERVER_SESSION_MANAGER_H_
#define MINOAN_SERVER_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/session.h"
#include "kb/collection.h"
#include "online/online_resolver.h"
#include "server/protocol.h"
#include "util/status.h"

namespace minoan {
namespace obs {
class EventLog;
}  // namespace obs
namespace server {

/// Everything needed to build a session — and to rebuild it after
/// eviction. Kept verbatim for the session's whole lifetime.
struct SessionSpec {
  std::string tenant;
  SessionKind kind = SessionKind::kBatch;
  /// Corpus source: "dir:<path>" (server-local RDF directory) or
  /// "synthetic:<seed>:<entities>:<kbs>:<center>" (datagen cloud). Batch
  /// sessions require one; online sessions warm-start from it when given.
  std::string source;
  double threshold = 0.35;
  bool use_same_as_seeds = false;
  /// Worker threads for the session's internal phases (batch static
  /// phases, online warm scoring). 1 = inline.
  uint32_t num_threads = 1;
};

class SessionManager {
 public:
  struct Options {
    /// Checkpoint directory for evicted sessions (required).
    std::string state_dir;
    /// Live-session cap; creating past it LRU-evicts (>= 1).
    size_t max_live_sessions = 64;
    /// Idle seconds after which EvictIdle() checkpoints a session
    /// (0 = only the cap evicts).
    double evict_after_seconds = 0;
  };

  explicit SessionManager(Options options);

  /// An exclusive handle on one live session. Holds the session's lock for
  /// the lease's lifetime; the pointers stay valid exactly that long.
  class Lease {
   public:
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    /// Stamps the session's idle clock — idle eviction measures from the
    /// end of the last request, not its start.
    ~Lease();

    const SessionSpec& spec() const;
    /// Null for online sessions.
    ResolutionSession* batch();
    /// Null for batch sessions.
    online::OnlineResolver* online();
    /// The session's corpus (batch: the shared loaded collection; online:
    /// the engine's live collection).
    const EntityCollection& collection() const;
    /// The session's cumulative match log, by reference.
    const std::vector<MatchEvent>& matches() const;

   private:
    friend class SessionManager;
    struct Entry;
    Lease(std::shared_ptr<Entry> entry, std::unique_lock<std::mutex> lock)
        : entry_(std::move(entry)), lock_(std::move(lock)) {}
    std::shared_ptr<Entry> entry_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Builds the session and returns its id. May LRU-evict to stay under
  /// the live cap.
  Result<uint64_t> Create(const SessionSpec& spec);

  /// Exclusive access; transparently restores an evicted session.
  Result<Lease> Acquire(uint64_t id);

  /// Checkpoints the session to its state file without evicting it (the
  /// kCheckpoint request). Returns the bytes written.
  Result<uint64_t> Checkpoint(uint64_t id);

  /// Evicts one specific live session (test hook; the cap path and
  /// EvictIdle use the same machinery).
  Status Evict(uint64_t id);

  /// Checkpoints every session idle longer than `evict_after_seconds`
  /// (no-op when that option is 0). Returns how many were evicted.
  size_t EvictIdle();

  /// Removes the session and deletes its checkpoint file.
  Status Close(uint64_t id);

  size_t live_sessions() const;
  size_t num_sessions() const;
  const Options& options() const { return options_; }

  /// Sink for lifecycle events (evict/restore/close and their failures).
  /// Optional; wire it before traffic starts (the Server does so at
  /// construction). The log must outlive the manager.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }

 private:
  using Entry = Lease::Entry;

  std::string CheckpointPath(uint64_t id) const;
  /// Loads (on the session's `num_threads` workers) or reuses the corpus
  /// of `spec.source` (cache by source string: every thread count loads the
  /// same collection).
  Result<std::shared_ptr<const EntityCollection>> CorpusFor(
      const SessionSpec& spec);
  /// Builds the live engine inside `entry` (fresh create). Entry lock held.
  Status Materialize(Entry& entry);
  /// Restores `entry` from its checkpoint file. Entry lock held. The
  /// outcome (session_restored / restore_failed) lands in the event log.
  Status RestoreEntry(Entry& entry);
  Status RestoreEntryImpl(Entry& entry);
  /// Checkpoints `entry` and frees its live state. Entry lock held. The
  /// outcome (session_evicted / checkpoint_failed) lands in the event log.
  Status EvictEntry(Entry& entry);
  Status EvictEntryImpl(Entry& entry, uint64_t& bytes);
  /// Atomically replaces `entry`'s checkpoint file with its live state and
  /// returns the bytes written. Entry lock held.
  Result<uint64_t> WriteCheckpoint(const Entry& entry);
  /// Evicts LRU live sessions until `live_` <= cap. Manager lock held by
  /// caller; takes entry locks (skipping busy entries).
  void EnforceCapLocked();

  const Options options_;
  obs::EventLog* event_log_ = nullptr;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  uint64_t lru_clock_ = 0;
  /// Live-session count; atomic so eviction scans and accessors read it
  /// without the manager lock (entry transitions hold only the entry lock).
  std::atomic<size_t> live_{0};
  std::map<uint64_t, std::shared_ptr<Entry>> sessions_;
  /// Corpora shared across sessions with the same source. weak_ptr: a
  /// corpus lives exactly as long as some live session uses it.
  std::unordered_map<std::string, std::weak_ptr<const EntityCollection>>
      corpus_cache_;
};

/// Builds a collection from a SessionSpec source string: "dir:<path>" goes
/// through LoadCorpusDirectory (kb/collection.h) on `num_threads` workers,
/// "synthetic:..." through the datagen cloud. Exposed for tests.
Result<EntityCollection> LoadCorpus(const std::string& source,
                                    uint32_t num_threads = 1);

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_SESSION_MANAGER_H_
