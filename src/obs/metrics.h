// Copyright 2026 The MinoanER Authors.
// MetricsRegistry: the process-wide counter/gauge/histogram registry behind
// every pipeline telemetry signal (blocking shard sizes, spill runs, pool
// utilization, online ingest rates).
//
// Design constraints, in order:
//
//   1. Out-of-band. Instrumentation NEVER influences results: every
//      byte-identity guarantee of the pipeline (match sequence, checkpoint
//      bytes, bench identity probes) holds with metrics enabled or
//      disabled, at any thread count. Metrics only observe.
//   2. Hot-path cheap. A counter increment from a worker thread is one
//      relaxed atomic add on a per-thread-sharded, cache-line-padded cell —
//      no locks, no false sharing between workers. Aggregation cost is paid
//      by the (rare) reader, which sums the cells.
//   3. Resettable per metric. Tests and benches scope their probes by
//      resetting exactly the metrics they assert on (see the spill
//      telemetry shim in extmem/shuffle.h), so parallel test cases do not
//      pollute each other's counters.
//
// Usage at an instrumentation site (one-time registration via a function-
// local static, then lock-free updates):
//
//   static obs::Counter& chunks =
//       obs::MetricsRegistry::Default().counter("blocking.chunks");
//   chunks.Add(num_chunks);

#ifndef MINOAN_OBS_METRICS_H_
#define MINOAN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace minoan {
namespace obs {

/// Sharded cells per counter/histogram (power of two). Threads map onto
/// cells by a dense thread index, so up to kMetricCells concurrent writers
/// touch distinct cache lines.
inline constexpr size_t kMetricCells = 16;
static_assert((kMetricCells & (kMetricCells - 1)) == 0);

/// Log2 histogram buckets: bucket i counts values in [2^(i-1), 2^i), with
/// bucket 0 counting zeros and the last bucket absorbing the overflow tail.
inline constexpr size_t kHistogramBuckets = 40;

/// Dense index of the calling thread, assigned on first use. Shared with
/// the trace recorder so span thread tags and metric cells agree.
uint32_t ThisThreadIndex();

namespace internal {
struct alignas(64) Cell {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// Monotonic counter. Add() is wait-free and safe from any thread.
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[ThisThreadIndex() & (kMetricCells - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Merged total over all cells. Concurrent adds may or may not be seen —
  /// exact once writers are quiescent (the snapshot-on-read contract).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* enabled_;
  std::array<internal::Cell, kMetricCells> cells_;
};

/// Signed point-in-time value (queue depths, worker counts).
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

/// Merged view of one histogram: exact count/sum/min/max plus log2 bucket
/// counts for shape.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// UINT64_MAX / 0 when count == 0.
  uint64_t min = std::numeric_limits<uint64_t>::max();
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Quantile estimate (q in [0,1]) from the log2 buckets: linear
  /// interpolation by rank inside the owning bucket, clamped to the exact
  /// [min, max] envelope. 0 when empty; exact for single samples and for
  /// histograms whose samples all share one value; otherwise within one
  /// bucket width of the true order statistic. Monotone in q.
  double Quantile(double q) const;
};

/// Distribution of a non-negative integer signal (shard sizes, queue waits,
/// runs per sink). Record() is wait-free; min/max are exact (CAS loops that
/// almost always exit on the first load once the extremes settle).
class Histogram {
 public:
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    PerCell& cell = cells_[ThisThreadIndex() & (kMetricCells - 1)];
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
    cell.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    AtomicMin(cell.min, value);
    AtomicMax(cell.max, value);
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Bucket index of a value: 0 for 0, else 1 + floor(log2(value)), capped.
  static size_t BucketOf(uint64_t value);

 private:
  struct alignas(64) PerCell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{std::numeric_limits<uint64_t>::max()};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };

  static void AtomicMin(std::atomic<uint64_t>& target, uint64_t value);
  static void AtomicMax(std::atomic<uint64_t>& target, uint64_t value);

  const std::atomic<bool>* enabled_;
  std::array<PerCell, kMetricCells> cells_;
};

/// Point-in-time merged view of a whole registry, sorted by metric name so
/// exports and golden comparisons are deterministic.
struct StatsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Counter value by name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
};

/// Owner of all metrics. Registration is mutex-protected and returns stable
/// references (the hot path holds a `Counter&`, never touches the map).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& Default();

  /// Returns the named metric, creating it on first use. The reference
  /// stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merged snapshot of every registered metric, name-sorted.
  StatsSnapshot Snapshot() const;

  /// Counter names+values only — the cheap input of per-span deltas.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;

  /// Zeroes every registered metric (names stay registered).
  void ResetAll();

  /// Master switch. Disabled => every Add/Set/Record is a load + branch.
  /// Purely observational either way: results are identical on or off.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The master-switch flag itself, for metrics that live outside this
  /// registry but must obey its on/off state (ScopedRegistry shadows).
  const std::atomic<bool>* enabled_flag() const { return &enabled_; }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  // std::map: deterministic name order for snapshots, stable addresses.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Dual-write counter handle: one Add lands in the process-wide metric and
/// in a label-scoped shadow, so per-tenant attribution costs exactly one
/// extra relaxed add per update — never per element (instrumentation sites
/// batch, e.g. one Add per installment). Copyable; both targets outlive the
/// handle (registry metrics are never destroyed before their registry).
class ScopedCounter {
 public:
  ScopedCounter() = default;
  ScopedCounter(Counter* process, Counter* scoped)
      : process_(process), scoped_(scoped) {}

  void Add(uint64_t delta) {
    if (process_ != nullptr) process_->Add(delta);
    if (scoped_ != nullptr) scoped_->Add(delta);
  }
  void Increment() { Add(1); }

 private:
  Counter* process_ = nullptr;
  Counter* scoped_ = nullptr;
};

/// A labelled view over a parent registry (one per tenant in the server).
/// Metrics created here are local to the label but share the parent's
/// master enable switch, so the out-of-band contract (rule 1 above) holds
/// for scoped and process metrics as one unit. scoped_counter() returns a
/// dual-write handle pairing the parent's counter of the same name with the
/// local shadow — the mechanism behind "tenant sums equal process totals".
class ScopedRegistry {
 public:
  ScopedRegistry(MetricsRegistry* parent, std::string label);
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

  const std::string& label() const { return label_; }

  /// Label-local metric, created on first use; stable reference.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Dual-write handle: parent counter `name` + the local shadow `name`.
  ScopedCounter scoped_counter(std::string_view name);

  /// Merged snapshot of the label-local metrics only, name-sorted.
  StatsSnapshot Snapshot() const;

 private:
  MetricsRegistry* parent_;
  std::string label_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Writes `s` as a JSON string literal (quotes + escapes) — shared by the
/// stats and trace exporters.
void WriteJsonString(std::ostream& out, std::string_view s);

}  // namespace obs
}  // namespace minoan

#endif  // MINOAN_OBS_METRICS_H_
