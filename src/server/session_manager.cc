#include "server/session_manager.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "datagen/lod_generator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/cli_flags.h"

namespace minoan {
namespace server {

namespace {

obs::Counter& CreatedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("server.sessions.created");
  return c;
}
obs::Counter& EvictedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("server.sessions.evicted");
  return c;
}
obs::Counter& RestoredCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("server.sessions.restored");
  return c;
}
obs::Counter& ClosedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("server.sessions.closed");
  return c;
}
obs::Gauge& LiveGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Default().gauge("server.sessions.live");
  return g;
}
obs::Histogram& CheckpointBytes() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Default().histogram("server.checkpoint_bytes");
  return h;
}

WorkflowOptions BatchOptions(const SessionSpec& spec) {
  WorkflowOptions options;
  options.progressive.matcher.threshold = spec.threshold;
  options.use_same_as_seeds = spec.use_same_as_seeds;
  options.num_threads = spec.num_threads;
  return options;
}

online::OnlineOptions OnlineOptionsFor(const SessionSpec& spec) {
  online::OnlineOptions options;
  options.matcher.threshold = spec.threshold;
  options.use_same_as_seeds = spec.use_same_as_seeds;
  options.num_threads = spec.num_threads;
  return options;
}

}  // namespace

Result<EntityCollection> LoadCorpus(const std::string& source,
                                   uint32_t num_threads) {
  if (source.rfind("dir:", 0) == 0) {
    // The CLI's loader, so a served session and `minoan resolve DIR` run
    // over the identical collection (the byte-parity contract of kLinks).
    return LoadCorpusDirectory(source.substr(4), num_threads);
  }
  if (source.rfind("synthetic:", 0) == 0) {
    // synthetic:<seed>:<entities>:<kbs>:<center>; the seed is a u64, the
    // three counts are u32 — a larger value is an error, not a wrap.
    uint64_t fields[4] = {0, 0, 0, 0};
    size_t pos = 10;
    for (int i = 0; i < 4; ++i) {
      const size_t end = i == 3 ? source.size() : source.find(':', pos);
      if (end == std::string::npos) {
        return Status::InvalidArgument(
            "synthetic source needs seed:entities:kbs:center, got " + source);
      }
      MINOAN_ASSIGN_OR_RETURN(
          fields[i],
          cli::ParseUint("synthetic source field",
                         std::string_view(source).substr(pos, end - pos),
                         i == 0 ? UINT64_MAX : UINT32_MAX));
      pos = end + 1;
    }
    datagen::LodCloudConfig config;
    config.seed = fields[0];
    config.num_real_entities = static_cast<uint32_t>(fields[1]);
    config.num_kbs = static_cast<uint32_t>(fields[2]);
    config.center_kbs = static_cast<uint32_t>(fields[3]);
    MINOAN_ASSIGN_OR_RETURN(datagen::LodCloud cloud,
                            datagen::GenerateLodCloud(config));
    return cloud.BuildCollection();
  }
  return Status::InvalidArgument(
      "corpus source must be dir:<path> or "
      "synthetic:<seed>:<entities>:<kbs>:<center>, got \"" +
      source + "\"");
}

/// One managed session. `mu` serializes every operation on the live
/// engines; the manager's lock never blocks on it (try_lock only), so a
/// lease holder cannot deadlock the manager.
struct SessionManager::Lease::Entry {
  uint64_t id = 0;
  SessionSpec spec;
  std::string ckpt_path;

  std::mutex mu;
  bool evicted = false;
  bool closed = false;
  /// Batch: the shared corpus (must outlive `batch`).
  std::shared_ptr<const EntityCollection> corpus;
  std::unique_ptr<ResolutionSession> batch;
  std::unique_ptr<online::OnlineResolver> online;

  /// LRU bookkeeping, written under the manager lock (Touch) and read by
  /// the eviction scans.
  uint64_t lru_seq = 0;
  std::atomic<int64_t> idle_since_ns{0};
};

namespace {
int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

SessionManager::Lease::~Lease() {
  if (entry_ != nullptr) {
    entry_->idle_since_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  }
}

const SessionSpec& SessionManager::Lease::spec() const { return entry_->spec; }
ResolutionSession* SessionManager::Lease::batch() {
  return entry_->batch.get();
}
online::OnlineResolver* SessionManager::Lease::online() {
  return entry_->online.get();
}
const std::vector<MatchEvent>& SessionManager::Lease::matches() const {
  return entry_->online != nullptr ? entry_->online->run().matches
                                   : entry_->batch->matches();
}
const EntityCollection& SessionManager::Lease::collection() const {
  return entry_->online != nullptr ? entry_->online->collection()
                                   : *entry_->corpus;
}

SessionManager::SessionManager(Options options) : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.state_dir, ec);
  // A bad state_dir surfaces on the first eviction/checkpoint, with the
  // failing path in the message — not worth failing construction for.
}

std::string SessionManager::CheckpointPath(uint64_t id) const {
  return options_.state_dir + "/session-" + std::to_string(id) + ".ckpt";
}

Result<std::shared_ptr<const EntityCollection>> SessionManager::CorpusFor(
    const SessionSpec& spec) {
  const std::string& source = spec.source;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = corpus_cache_.find(source);
    if (it != corpus_cache_.end()) {
      if (auto cached = it->second.lock()) return cached;
    }
  }
  // Load outside the manager lock: other sessions keep working while a
  // corpus loads. Two racing loaders of one source both succeed (identical
  // collections); last one wins the cache slot.
  MINOAN_ASSIGN_OR_RETURN(EntityCollection loaded,
                          LoadCorpus(source, spec.num_threads));
  auto shared =
      std::make_shared<const EntityCollection>(std::move(loaded));
  std::lock_guard<std::mutex> lock(mu_);
  corpus_cache_[source] = shared;
  return shared;
}

Status SessionManager::Materialize(Entry& entry) {
  if (entry.spec.kind == SessionKind::kBatch) {
    if (entry.spec.source.empty()) {
      return Status::InvalidArgument("batch sessions require a corpus source");
    }
    MINOAN_ASSIGN_OR_RETURN(entry.corpus, CorpusFor(entry.spec));
    auto session =
        ResolutionSession::Open(*entry.corpus, BatchOptions(entry.spec));
    MINOAN_RETURN_IF_ERROR(session.status());
    entry.batch =
        std::make_unique<ResolutionSession>(std::move(session).value());
    return Status::Ok();
  }
  if (entry.spec.source.empty()) {
    entry.online =
        std::make_unique<online::OnlineResolver>(OnlineOptionsFor(entry.spec));
    return Status::Ok();
  }
  // Online warm start owns its collection — load a private copy (the
  // shared corpus cache hands out const snapshots, but the online engine
  // grows its store).
  MINOAN_ASSIGN_OR_RETURN(
      EntityCollection warm,
      LoadCorpus(entry.spec.source, entry.spec.num_threads));
  entry.online = std::make_unique<online::OnlineResolver>(
      OnlineOptionsFor(entry.spec), std::move(warm));
  return Status::Ok();
}

Status SessionManager::RestoreEntry(Entry& entry) {
  const Status status = RestoreEntryImpl(entry);
  if (event_log_ != nullptr) {
    if (status.ok()) {
      event_log_->Log(obs::Severity::kInfo, "session_restored",
                      {{"tenant", entry.spec.tenant}}, {{"session", entry.id}});
    } else {
      event_log_->Log(obs::Severity::kError, "restore_failed",
                      {{"tenant", entry.spec.tenant},
                       {"error", std::string(status.message())}},
                      {{"session", entry.id}});
    }
  }
  return status;
}

Status SessionManager::RestoreEntryImpl(Entry& entry) {
  std::ifstream in(entry.ckpt_path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot read checkpoint " + entry.ckpt_path);
  }
  if (entry.spec.kind == SessionKind::kBatch) {
    MINOAN_ASSIGN_OR_RETURN(entry.corpus, CorpusFor(entry.spec));
    auto session = ResolutionSession::Restore(*entry.corpus,
                                              BatchOptions(entry.spec), in);
    MINOAN_RETURN_IF_ERROR(session.status());
    entry.batch =
        std::make_unique<ResolutionSession>(std::move(session).value());
  } else {
    // Self-contained: MNER-ONLN-v2 embeds the collection, so an online
    // session restores with no corpus rebuild at all.
    auto engine = online::OnlineResolver::Restore(OnlineOptionsFor(entry.spec),
                                                  in);
    MINOAN_RETURN_IF_ERROR(engine.status());
    entry.online = std::move(engine).value();
  }
  entry.evicted = false;
  live_.fetch_add(1, std::memory_order_relaxed);
  LiveGauge().Add(1);
  RestoredCounter().Increment();
  return Status::Ok();
}

Status SessionManager::EvictEntry(Entry& entry) {
  uint64_t bytes = 0;
  const Status status = EvictEntryImpl(entry, bytes);
  if (event_log_ != nullptr) {
    if (status.ok()) {
      event_log_->Log(obs::Severity::kInfo, "session_evicted",
                      {{"tenant", entry.spec.tenant}},
                      {{"session", entry.id}, {"checkpoint_bytes", bytes}});
    } else {
      event_log_->Log(obs::Severity::kError, "checkpoint_failed",
                      {{"tenant", entry.spec.tenant},
                       {"error", std::string(status.message())}},
                      {{"session", entry.id}});
    }
  }
  return status;
}

Result<uint64_t> SessionManager::WriteCheckpoint(const Entry& entry) {
  MINOAN_ASSIGN_OR_RETURN(
      const uint64_t bytes,
      WriteFileAtomic(entry.ckpt_path, [&](std::ostream& out) {
        return entry.batch != nullptr ? entry.batch->Checkpoint(out)
                                      : entry.online->SaveState(out);
      }));
  CheckpointBytes().Record(bytes);
  return bytes;
}

Status SessionManager::EvictEntryImpl(Entry& entry, uint64_t& bytes) {
  MINOAN_ASSIGN_OR_RETURN(bytes, WriteCheckpoint(entry));
  entry.batch.reset();
  entry.online.reset();
  entry.corpus.reset();
  entry.evicted = true;
  live_.fetch_sub(1, std::memory_order_relaxed);
  LiveGauge().Add(-1);
  EvictedCounter().Increment();
  return Status::Ok();
}

Result<uint64_t> SessionManager::Create(const SessionSpec& spec) {
  auto entry = std::make_shared<Entry>();
  entry->spec = spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->id = next_id_++;
    entry->ckpt_path = CheckpointPath(entry->id);
  }
  // The entry becomes visible only once built, so a failed or throwing
  // build leaves nothing behind for Acquire or the eviction scans.
  MINOAN_RETURN_IF_ERROR(Materialize(*entry));
  entry->idle_since_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  live_.fetch_add(1, std::memory_order_relaxed);
  LiveGauge().Add(1);
  CreatedCounter().Increment();
  std::lock_guard<std::mutex> lock(mu_);
  entry->lru_seq = ++lru_clock_;
  sessions_.emplace(entry->id, entry);
  EnforceCapLocked();
  return entry->id;
}

Result<SessionManager::Lease> SessionManager::Acquire(uint64_t id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(id));
    }
    entry = it->second;
    entry->lru_seq = ++lru_clock_;
  }
  std::unique_lock<std::mutex> entry_lock(entry->mu);
  if (entry->closed) {
    return Status::NotFound("session " + std::to_string(id) + " is closed");
  }
  if (entry->evicted) {
    MINOAN_RETURN_IF_ERROR(RestoreEntry(*entry));
    std::lock_guard<std::mutex> lock(mu_);
    EnforceCapLocked();
  }
  entry->idle_since_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  return Lease(std::move(entry), std::move(entry_lock));
}

Result<uint64_t> SessionManager::Checkpoint(uint64_t id) {
  MINOAN_ASSIGN_OR_RETURN(Lease lease, Acquire(id));
  return WriteCheckpoint(*lease.entry_);
}

Status SessionManager::Evict(uint64_t id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(id));
    }
    entry = it->second;
  }
  std::lock_guard<std::mutex> entry_lock(entry->mu);
  if (entry->closed) {
    return Status::NotFound("session " + std::to_string(id) + " is closed");
  }
  if (entry->evicted) return Status::Ok();
  return EvictEntry(*entry);
}

size_t SessionManager::EvictIdle() {
  if (options_.evict_after_seconds <= 0) return 0;
  const int64_t cutoff =
      SteadyNowNs() -
      static_cast<int64_t>(options_.evict_after_seconds * 1e9);
  std::vector<std::shared_ptr<Entry>> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : sessions_) candidates.push_back(entry);
  }
  size_t evicted = 0;
  for (const auto& entry : candidates) {
    if (entry->idle_since_ns.load(std::memory_order_relaxed) > cutoff) {
      continue;
    }
    // try_lock: a session mid-request is busy, not idle — skip it.
    std::unique_lock<std::mutex> entry_lock(entry->mu, std::try_to_lock);
    if (!entry_lock.owns_lock() || entry->evicted || entry->closed) continue;
    if (entry->idle_since_ns.load(std::memory_order_relaxed) > cutoff) {
      continue;
    }
    if (EvictEntry(*entry).ok()) ++evicted;
  }
  return evicted;
}

void SessionManager::EnforceCapLocked() {
  const size_t cap = std::max<size_t>(1, options_.max_live_sessions);
  while (live_.load(std::memory_order_relaxed) > cap) {
    // Oldest lru_seq first; entries mid-request (lock held) are skipped —
    // the cap is best-effort under contention, exact once requests drain.
    std::shared_ptr<Entry> victim;
    uint64_t victim_seq = 0;
    for (const auto& [id, entry] : sessions_) {
      if (entry->evicted || entry->closed) continue;
      if (victim == nullptr || entry->lru_seq < victim_seq) {
        victim = entry;
        victim_seq = entry->lru_seq;
      }
    }
    if (victim == nullptr) return;
    std::unique_lock<std::mutex> entry_lock(victim->mu, std::try_to_lock);
    if (!entry_lock.owns_lock()) return;
    if (victim->evicted || victim->closed) continue;
    if (!EvictEntry(*victim).ok()) return;
  }
}

Status SessionManager::Close(uint64_t id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(id));
    }
    entry = it->second;
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> entry_lock(entry->mu);
  if (!entry->evicted && !entry->closed) {
    live_.fetch_sub(1, std::memory_order_relaxed);
    LiveGauge().Add(-1);
  }
  entry->closed = true;
  entry->batch.reset();
  entry->online.reset();
  entry->corpus.reset();
  std::error_code ec;
  std::filesystem::remove(entry->ckpt_path, ec);
  ClosedCounter().Increment();
  if (event_log_ != nullptr) {
    event_log_->Log(obs::Severity::kInfo, "session_closed",
                    {{"tenant", entry->spec.tenant}}, {{"session", entry->id}});
  }
  return Status::Ok();
}

size_t SessionManager::live_sessions() const {
  return live_.load(std::memory_order_relaxed);
}

size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace server
}  // namespace minoan
