#include "extmem/shuffle.h"

#include <filesystem>

#include "obs/metrics.h"

namespace minoan {
namespace extmem {

namespace {

// Spill telemetry lives in the metrics registry (spill.* namespace), so it
// shows up in --metrics-out stats alongside everything else. Tests and
// benches reach it through the Get/ResetSpillTelemetry shim below, which
// resets exactly these metrics.
struct SpillMetrics {
  obs::Counter& runs =
      obs::MetricsRegistry::Default().counter("spill.runs");
  obs::Counter& bytes =
      obs::MetricsRegistry::Default().counter("spill.bytes");
  obs::Counter& sinks_spilled =
      obs::MetricsRegistry::Default().counter("spill.sinks_spilled");
  obs::Counter& sinks_loaded =
      obs::MetricsRegistry::Default().counter("spill.sinks_loaded");
  obs::Counter& cascade_merges =
      obs::MetricsRegistry::Default().counter("spill.cascade_merges");
  // Runs spilled per finished loaded shard; the exact histogram min is the
  // "every shard really spilled k runs" probe of the determinism tests.
  obs::Histogram& runs_per_sink =
      obs::MetricsRegistry::Default().histogram("spill.runs_per_sink");
};

SpillMetrics& Metrics() {
  static SpillMetrics* metrics = new SpillMetrics();
  return *metrics;
}

/// Source over one compressed spilled run file.
class FileSource : public ShuffleSource {
 public:
  explicit FileSource(const std::string& path) : reader_(path) {}
  bool Next(std::string_view& record) override {
    return reader_.Next(record);
  }

 private:
  CompressedRunReader reader_;
};

}  // namespace

SpillTelemetry GetSpillTelemetry() {
  SpillMetrics& metrics = Metrics();
  SpillTelemetry t;
  t.runs_spilled = metrics.runs.Value();
  t.bytes_spilled = metrics.bytes.Value();
  t.sinks_spilled = metrics.sinks_spilled.Value();
  t.sinks_loaded = metrics.sinks_loaded.Value();
  t.cascade_merges = metrics.cascade_merges.Value();
  // Histogram min over finished shards; its empty-state sentinel is the
  // same UINT64_MAX the probe API always used.
  t.min_runs_per_loaded_sink = metrics.runs_per_sink.Snapshot().min;
  return t;
}

void ResetSpillTelemetry() {
  SpillMetrics& metrics = Metrics();
  metrics.runs.Reset();
  metrics.bytes.Reset();
  metrics.sinks_spilled.Reset();
  metrics.sinks_loaded.Reset();
  metrics.cascade_merges.Reset();
  metrics.runs_per_sink.Reset();
}

void RecordFinishedShard(uint64_t records, uint64_t runs) {
  if (records == 0) return;
  Metrics().sinks_loaded.Increment();
  Metrics().runs_per_sink.Record(runs);
  if (runs > 0) Metrics().sinks_spilled.Increment();
}

void SpilledRuns::Add(std::string path, uint64_t bytes) {
  Metrics().bytes.Add(bytes);
  Metrics().runs.Increment();
  paths_.push_back(std::move(path));
}

std::string SpilledRuns::MergeGroup(size_t begin, size_t end) {
  std::vector<std::unique_ptr<ShuffleSource>> group;
  group.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    group.push_back(std::make_unique<FileSource>(paths_[i]));
  }
  RunMerger merger(std::move(group));
  std::string out_path = dir_->NextRunPath();
  try {
    CompressedRunWriter writer(out_path);
    std::string_view record;
    while (merger.Next(record)) writer.Append(record);
    writer.Close();
  } catch (...) {
    // Never leave a partially written merge generation behind: the group's
    // input runs are still tracked in paths_ (and removed with the dir),
    // this output is not — remove it here so cleanup covers intermediate
    // generations even when the base directory is user-provided.
    std::error_code ec;
    std::filesystem::remove(out_path, ec);
    throw;
  }
  Metrics().cascade_merges.Increment();
  for (size_t i = begin; i < end; ++i) {
    std::error_code ec;
    std::filesystem::remove(paths_[i], ec);
  }
  return out_path;
}

std::unique_ptr<ShuffleSource> SpilledRuns::MergeWith(
    std::unique_ptr<ShuffleSource> tail) {
  // Merge CONSECUTIVE runs and splice the output into the group's position,
  // so run index keeps meaning arrival order.
  while (paths_.size() > kMergeFanin) {
    std::vector<std::string> next;
    next.reserve((paths_.size() + kMergeFanin - 1) / kMergeFanin);
    for (size_t g = 0; g < paths_.size(); g += kMergeFanin) {
      const size_t end = std::min(paths_.size(), g + kMergeFanin);
      next.push_back(end - g == 1 ? std::move(paths_[g]) : MergeGroup(g, end));
    }
    paths_ = std::move(next);
  }
  std::vector<std::unique_ptr<ShuffleSource>> runs;
  runs.reserve(paths_.size() + 1);
  for (const std::string& path : paths_) {
    runs.push_back(std::make_unique<FileSource>(path));
  }
  runs.push_back(std::move(tail));
  return std::make_unique<RunMerger>(std::move(runs));
}

}  // namespace extmem
}  // namespace minoan
