// Tests for the observability subsystem (src/obs/): metrics-registry merge
// correctness under concurrency, RAII span nesting and counter attribution,
// exporter golden files (Chrome-trace and minoan-stats-v1 JSON), the
// progressive-quality meter, and — the load-bearing contract — determinism
// parity: every result and checkpoint byte is identical with instrumentation
// enabled or disabled, at any thread count.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checkpoint_canon.h"
#include "core/minoan_er.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::PhaseSpan;
using obs::ProgressMeter;
using obs::ProgressSample;
using obs::StatsSnapshot;
using obs::TraceEvent;
using obs::TraceRecorder;

/// Pins the default registry's master switch for one test and restores the
/// previous state afterwards, so tests cannot leak a disabled registry into
/// their neighbors.
class ScopedRegistryEnabled {
 public:
  explicit ScopedRegistryEnabled(bool enabled)
      : saved_(MetricsRegistry::Default().enabled()) {
    MetricsRegistry::Default().set_enabled(enabled);
  }
  ~ScopedRegistryEnabled() { MetricsRegistry::Default().set_enabled(saved_); }

 private:
  bool saved_;
};

// ---------------------------------------------------------------------------
// Registry merge correctness under concurrency
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterMergesSevenThreadsExactly) {
  ScopedRegistryEnabled on(true);
  Counter& counter =
      MetricsRegistry::Default().counter("test.counter_merge_7t");
  counter.Reset();

  constexpr int kThreads = 7;
  constexpr uint64_t kAddsPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) {
        counter.Add(static_cast<uint64_t>(t) + 1);  // thread t adds t+1 each
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Sum over t of (t+1) * kAddsPerThread = kAddsPerThread * 7*8/2.
  EXPECT_EQ(counter.Value(), kAddsPerThread * (kThreads * (kThreads + 1) / 2));
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(MetricsTest, HistogramMergesSevenThreadsExactly) {
  ScopedRegistryEnabled on(true);
  Histogram& histogram =
      MetricsRegistry::Default().histogram("test.histogram_merge_7t");
  histogram.Reset();

  constexpr int kThreads = 7;
  constexpr uint64_t kRecordsPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) {
        // Values cycle 1..100, offset per thread so min/max span threads.
        histogram.Record(1 + (i + static_cast<uint64_t>(t) * 37) % 100);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kRecordsPerThread);
  EXPECT_EQ(snapshot.min, 1u);
  EXPECT_EQ(snapshot.max, 100u);
  // Every value is 1..100 so the mean must sit strictly inside.
  EXPECT_GT(snapshot.Mean(), 1.0);
  EXPECT_LT(snapshot.Mean(), 100.0);
  // Bucket counts must add back up to the total count.
  uint64_t bucket_total = 0;
  for (uint64_t bucket : snapshot.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, snapshot.count);

  histogram.Reset();
  const HistogramSnapshot empty = histogram.Snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(empty.max, 0u);
  EXPECT_EQ(empty.Mean(), 0.0);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // The overflow tail absorbs everything past the last bucket boundary.
  EXPECT_EQ(Histogram::BucketOf(std::numeric_limits<uint64_t>::max()),
            obs::kHistogramBuckets - 1);
}

// ---------------------------------------------------------------------------
// Quantile summaries from the log2 buckets
// ---------------------------------------------------------------------------

TEST(QuantileTest, EmptyHistogramIsZero) {
  const HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Quantile(1.0), 0.0);
}

TEST(QuantileTest, SingleSampleIsExactAtEveryQuantile) {
  MetricsRegistry registry;
  for (uint64_t value : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                         uint64_t{1000}}) {
    Histogram& histogram =
        registry.histogram("q.single." + std::to_string(value));
    histogram.Record(value);
    const HistogramSnapshot snapshot = histogram.Snapshot();
    for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(snapshot.Quantile(q), static_cast<double>(value))
          << "value=" << value << " q=" << q;
    }
  }
}

TEST(QuantileTest, AllEqualSamplesAreExact) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("q.all_equal");
  for (int i = 0; i < 100; ++i) histogram.Record(9);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  for (double q : {0.01, 0.5, 0.95, 0.99}) {
    EXPECT_EQ(snapshot.Quantile(q), 9.0) << "q=" << q;
  }
}

TEST(QuantileTest, ExactBucketBoundaries) {
  // One sample per power of two: each lands exactly on its bucket's lower
  // boundary, so the rank walk and the per-bucket interpolation are both
  // exercised at the seams.
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("q.boundaries");
  for (uint64_t value : {uint64_t{1}, uint64_t{2}, uint64_t{4}, uint64_t{8}}) {
    histogram.Record(value);
  }
  const HistogramSnapshot snapshot = histogram.Snapshot();
  // rank 1 owns bucket [1,2): interpolates to its upper edge 2.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.25), 2.0);
  // rank 2 owns bucket [2,4): upper edge 4.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 4.0);
  // rank 4 owns bucket [8,16): the [min,max] clamp pins it to max = 8.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), 8.0);
}

TEST(QuantileTest, WithinOneBucketWidthOfSortedOracle) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("q.oracle");
  std::mt19937_64 rng(20260807);
  std::vector<uint64_t> samples;
  samples.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t value = rng() % (uint64_t{1} << 20);
    samples.push_back(value);
    histogram.Record(value);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snapshot = histogram.Snapshot();

  double previous = 0.0;
  for (double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    // Nearest-rank oracle with the estimator's own rank convention.
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * samples.size())));
    const uint64_t truth = samples[rank - 1];
    const double estimate = snapshot.Quantile(q);
    // The true order statistic and the estimate live in the same log2
    // bucket, so they differ by less than that bucket's width.
    const size_t bucket = Histogram::BucketOf(truth);
    const double width =
        bucket == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(bucket) - 1);
    EXPECT_LE(std::abs(estimate - static_cast<double>(truth)), width)
        << "q=" << q << " truth=" << truth;
    EXPECT_GE(estimate, previous) << "quantiles must be monotone, q=" << q;
    previous = estimate;
  }
}

TEST(MetricsTest, GaugeSetAddReset) {
  ScopedRegistryEnabled on(true);
  Gauge& gauge = MetricsRegistry::Default().gauge("test.gauge");
  gauge.Reset();
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-50);
  EXPECT_EQ(gauge.Value(), -8);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(MetricsTest, DisabledRegistryDropsUpdates) {
  MetricsRegistry registry;  // private registry: no cross-test pollution
  Counter& counter = registry.counter("c");
  Gauge& gauge = registry.gauge("g");
  Histogram& histogram = registry.histogram("h");

  registry.set_enabled(false);
  counter.Add(7);
  gauge.Set(7);
  histogram.Record(7);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Snapshot().count, 0u);

  registry.set_enabled(true);
  counter.Add(7);
  gauge.Set(7);
  histogram.Record(7);
  EXPECT_EQ(counter.Value(), 7u);
  EXPECT_EQ(gauge.Value(), 7);
  EXPECT_EQ(histogram.Snapshot().count, 1u);
}

TEST(MetricsTest, SnapshotIsNameSortedAndStable) {
  MetricsRegistry registry;
  registry.counter("zebra").Add(1);
  registry.counter("apple").Add(2);
  registry.counter("mango").Add(3);
  registry.gauge("beta").Set(-4);
  registry.histogram("delta").Record(9);

  const StatsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "apple");
  EXPECT_EQ(snapshot.counters[1].first, "mango");
  EXPECT_EQ(snapshot.counters[2].first, "zebra");
  EXPECT_EQ(snapshot.CounterValue("mango"), 3u);
  EXPECT_EQ(snapshot.CounterValue("not-registered"), 0u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, -4);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.sum, 9u);

  // Same-name lookups return the same metric object.
  EXPECT_EQ(&registry.counter("apple"), &registry.counter("apple"));

  registry.ResetAll();
  const StatsSnapshot after = registry.Snapshot();
  ASSERT_EQ(after.counters.size(), 3u);  // names survive a reset
  EXPECT_EQ(after.CounterValue("zebra"), 0u);
}

// ---------------------------------------------------------------------------
// Scoped (per-label) metric views
// ---------------------------------------------------------------------------

TEST(ScopedRegistryTest, DualWriteSumsToProcessTotal) {
  MetricsRegistry parent;
  obs::ScopedRegistry acme(&parent, "acme");
  obs::ScopedRegistry globex(&parent, "globex");

  obs::ScopedCounter acme_comparisons = acme.scoped_counter("comparisons");
  obs::ScopedCounter globex_comparisons = globex.scoped_counter("comparisons");
  acme_comparisons.Add(100);
  acme_comparisons.Increment();
  globex_comparisons.Add(41);

  // Each label sees only its own traffic; the parent sees the sum — the
  // invariant validate_obs.py --tenant checks on real servers.
  EXPECT_EQ(acme.Snapshot().CounterValue("comparisons"), 101u);
  EXPECT_EQ(globex.Snapshot().CounterValue("comparisons"), 41u);
  EXPECT_EQ(parent.Snapshot().CounterValue("comparisons"), 142u);
  EXPECT_EQ(acme.label(), "acme");
}

TEST(ScopedRegistryTest, ParentMasterSwitchGovernsShadows) {
  MetricsRegistry parent;
  obs::ScopedRegistry scope(&parent, "acme");
  obs::ScopedCounter counter = scope.scoped_counter("c");

  parent.set_enabled(false);
  counter.Add(7);
  scope.histogram("h").Record(7);
  EXPECT_EQ(parent.Snapshot().CounterValue("c"), 0u);
  EXPECT_EQ(scope.Snapshot().CounterValue("c"), 0u);
  EXPECT_EQ(scope.histogram("h").Snapshot().count, 0u);

  parent.set_enabled(true);
  counter.Add(7);
  EXPECT_EQ(parent.Snapshot().CounterValue("c"), 7u);
  EXPECT_EQ(scope.Snapshot().CounterValue("c"), 7u);
}

TEST(ScopedRegistryTest, SnapshotIsLocalAndNameSorted) {
  MetricsRegistry parent;
  parent.counter("parent.only").Add(1);
  obs::ScopedRegistry scope(&parent, "acme");
  scope.counter("zebra").Add(1);
  scope.counter("apple").Add(2);
  scope.gauge("depth").Set(-3);

  const StatsSnapshot snapshot = scope.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "apple");
  EXPECT_EQ(snapshot.counters[1].first, "zebra");
  EXPECT_EQ(snapshot.CounterValue("parent.only"), 0u);  // not leaked in
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, -3);
  // Same-name lookups return the same local metric object.
  EXPECT_EQ(&scope.counter("apple"), &scope.counter("apple"));
}

// ---------------------------------------------------------------------------
// Structured event log
// ---------------------------------------------------------------------------

TEST(EventLogTest, LogStampsAndSnapshots) {
  obs::EventLog log;
  log.Log(obs::Severity::kWarn, "slow_request", {{"tenant", "acme"}},
          {{"micros", 999}});
  ASSERT_EQ(log.size(), 1u);
  const std::vector<obs::Event> events = log.snapshot();
  EXPECT_EQ(events[0].severity, obs::Severity::kWarn);
  EXPECT_EQ(events[0].kind, "slow_request");
  ASSERT_EQ(events[0].text.size(), 1u);
  EXPECT_EQ(events[0].text[0].first, "tenant");
  EXPECT_EQ(events[0].text[0].second, "acme");
  ASSERT_EQ(events[0].values.size(), 1u);
  EXPECT_EQ(events[0].values[0].second, 999u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.filtered(), 0u);
}

TEST(EventLogTest, RingDropsOldestWhenFull) {
  obs::EventLog::Options options;
  options.max_events = 3;
  obs::EventLog log(options);
  for (int i = 0; i < 5; ++i) {
    log.Log(obs::Severity::kInfo, "e" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<obs::Event> events = log.snapshot();
  EXPECT_EQ(events[0].kind, "e2");  // e0, e1 evicted oldest-first
  EXPECT_EQ(events[2].kind, "e4");
}

TEST(EventLogTest, SeverityFilterDiscardsAtAppend) {
  obs::EventLog::Options options;
  options.min_severity = obs::Severity::kWarn;
  obs::EventLog log(options);
  log.Log(obs::Severity::kInfo, "chatty");
  log.Log(obs::Severity::kWarn, "warning");
  log.Log(obs::Severity::kError, "broken");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.filtered(), 1u);
  EXPECT_EQ(log.snapshot()[0].kind, "warning");
}

TEST(EventLogTest, WriteJsonlGolden) {
  obs::EventLog log;
  obs::Event slow;
  slow.ts_us = 123;
  slow.severity = obs::Severity::kWarn;
  slow.kind = "slow_request";
  slow.text = {{"request", "step"}, {"tenant", "acme"}};
  slow.values = {{"request_id", 7}, {"micros", 400000}};
  log.Append(slow);
  obs::Event evicted;
  evicted.ts_us = 456;
  evicted.severity = obs::Severity::kInfo;
  evicted.kind = "session_evicted";
  evicted.text = {{"tenant", "a \"b\""}};
  evicted.values = {{"session", 2}};
  log.Append(evicted);

  std::ostringstream out;
  log.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"ts_us\":123,\"severity\":\"warn\",\"kind\":\"slow_request\","
            "\"request\":\"step\",\"tenant\":\"acme\","
            "\"request_id\":7,\"micros\":400000}\n"
            "{\"ts_us\":456,\"severity\":\"info\","
            "\"kind\":\"session_evicted\",\"tenant\":\"a \\\"b\\\"\","
            "\"session\":2}\n");
}

// ---------------------------------------------------------------------------
// Span nesting and counter attribution
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansNestAndCompleteInnerFirst) {
  ScopedRegistryEnabled on(true);
  TraceRecorder recorder;
  {
    PhaseSpan outer(&recorder, "outer");
    {
      PhaseSpan inner(&recorder, "inner");
      {
        PhaseSpan innermost(&recorder, "innermost");
      }
    }
    PhaseSpan sibling(&recorder, "sibling");
  }

  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Completion order: innermost, inner, sibling, outer.
  EXPECT_EQ(events[0].name, "innermost");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[2].depth, 1u);  // depth restored after inner closed
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].depth, 0u);

  // All on this thread; children start no earlier and end no later than
  // their parent.
  const TraceEvent& outer_event = events[3];
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.tid, outer_event.tid);
    EXPECT_GE(event.start_us, outer_event.start_us);
    EXPECT_LE(event.start_us + event.dur_us,
              outer_event.start_us + outer_event.dur_us);
  }
}

TEST(TraceTest, SpanAttributesCounterDeltas) {
  ScopedRegistryEnabled on(true);
  Counter& counter = MetricsRegistry::Default().counter("test.span_delta");
  counter.Reset();

  TraceRecorder recorder;
  {
    PhaseSpan outer(&recorder, "outer");
    {
      PhaseSpan quiet(&recorder, "quiet");
    }
    {
      PhaseSpan busy(&recorder, "busy");
      counter.Add(5);
    }
  }

  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  auto delta_of = [](const TraceEvent& event, std::string_view name) {
    for (const auto& [counter_name, delta] : event.counter_deltas) {
      if (counter_name == name) return delta;
    }
    return uint64_t{0};
  };
  EXPECT_EQ(delta_of(events[0], "test.span_delta"), 0u);  // quiet
  EXPECT_EQ(delta_of(events[1], "test.span_delta"), 5u);  // busy
  EXPECT_EQ(delta_of(events[2], "test.span_delta"), 5u);  // outer sees both
}

TEST(TraceTest, NullRecorderIsInert) {
  PhaseSpan inert(nullptr, "never-recorded");
  EXPECT_EQ(inert.ElapsedMillis(), 0.0);

  // A null span must not disturb the nesting depth of real spans around it.
  ScopedRegistryEnabled on(true);
  TraceRecorder recorder;
  {
    PhaseSpan ghost(nullptr, "ghost");
    PhaseSpan real(&recorder, "real");
  }
  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].depth, 0u);
}

// ---------------------------------------------------------------------------
// Exporter goldens
// ---------------------------------------------------------------------------

TEST(TraceTest, EmptyChromeTraceIsValid) {
  TraceRecorder recorder;
  std::ostringstream out;
  recorder.WriteChromeTrace(out);
  EXPECT_EQ(out.str(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(TraceTest, ChromeTraceGolden) {
  TraceRecorder recorder;
  TraceEvent first;
  first.name = "blocking";
  first.tid = 0;
  first.depth = 1;
  first.start_us = 100;
  first.dur_us = 250;
  first.counter_deltas.emplace_back("blocking.chunks", 4);
  first.counter_deltas.emplace_back("blocking.postings", 1234);
  recorder.Append(first);
  TraceEvent second;
  second.name = "a \"quoted\"\nname";
  second.tid = 3;
  second.depth = 0;
  second.start_us = 0;
  second.dur_us = 400;
  recorder.Append(second);

  std::ostringstream out;
  recorder.WriteChromeTrace(out);
  EXPECT_EQ(
      out.str(),
      "{\"traceEvents\":["
      "{\"name\":\"blocking\",\"ph\":\"X\",\"ts\":100,\"dur\":250,"
      "\"pid\":1,\"tid\":0,\"args\":{\"depth\":1,"
      "\"blocking.chunks\":4,\"blocking.postings\":1234}},"
      "{\"name\":\"a \\\"quoted\\\"\\nname\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":400,\"pid\":1,\"tid\":3,\"args\":{\"depth\":0}}"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(MetricsTest, WriteJsonStringEscapes) {
  std::ostringstream out;
  obs::WriteJsonString(out, "a\"b\\c\nd\re\tf\x01g");
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
}

TEST(ReportTest, WriteStatsJsonGolden) {
  obs::StatsReport report;
  report.phases.push_back({"blocking", 12.5, 300});
  report.phases.push_back({"meta-blocking", 7.25, 120});
  report.progress.push_back({1000, 10, 1.5});
  report.progress.push_back({2000, 14, 3.0});
  report.pool.tasks_executed = 9;
  report.pool.queue_wait_micros = 400;
  report.pool.worker_busy_micros = {100, 200};
  report.metrics.counters.emplace_back("blocking.chunks", 4);
  report.metrics.gauges.emplace_back("pool.workers", 2);
  HistogramSnapshot histogram;
  histogram.count = 2;
  histogram.sum = 10;
  histogram.min = 3;
  histogram.max = 7;
  histogram.buckets[2] = 1;  // the 3, in [2,4)
  histogram.buckets[3] = 1;  // the 7, in [4,8)
  report.metrics.histograms.emplace_back("spill.runs_per_sink", histogram);
  obs::TenantBreakdown tenant;
  tenant.tenant = "acme";
  tenant.sessions = 2;
  tenant.requests = 9;
  tenant.comparisons = 1000;
  tenant.matches = 10;
  tenant.spill_bytes = 0;
  tenant.p50_request_micros = 10.0;
  tenant.p95_request_micros = 20.0;
  tenant.p99_request_micros = 30.5;
  report.tenants.push_back(tenant);
  report.peak_rss_bytes = 1048576;

  std::ostringstream out;
  obs::WriteStatsJson(out, report);
  EXPECT_EQ(
      out.str(),
      "{\"schema\":\"minoan-stats-v1\","
      "\"phases\":["
      "{\"name\":\"blocking\",\"millis\":12.500,\"cardinality\":300},"
      "{\"name\":\"meta-blocking\",\"millis\":7.250,\"cardinality\":120}],"
      "\"progress\":["
      "{\"comparisons\":1000,\"matches\":10,\"elapsed_ms\":1.500,"
      "\"new_matches_per_1k\":10.000},"
      "{\"comparisons\":2000,\"matches\":14,\"elapsed_ms\":3.000,"
      "\"new_matches_per_1k\":4.000}],"
      "\"pool\":{\"tasks_executed\":9,\"queue_wait_micros\":400,"
      "\"busy_micros_total\":300,\"worker_busy_micros\":[100,200]},"
      "\"counters\":{\"blocking.chunks\":4},"
      "\"gauges\":{\"pool.workers\":2},"
      "\"histograms\":{\"spill.runs_per_sink\":"
      "{\"count\":2,\"sum\":10,\"min\":3,\"max\":7,\"mean\":5.000,"
      "\"p50\":4.000,\"p95\":7.000,\"p99\":7.000}},"
      "\"tenants\":{\"acme\":{\"sessions\":2,\"requests\":9,"
      "\"comparisons\":1000,\"matches\":10,\"spill_bytes\":0,"
      "\"request_micros\":{\"p50\":10.000,\"p95\":20.000,\"p99\":30.500}}},"
      "\"peak_rss_bytes\":1048576}\n");
}

TEST(ReportTest, PeakRssIsPositiveAndMonotone) {
  const uint64_t before = obs::PeakRssBytes();
  EXPECT_GT(before, 0u);
  // Touch a few MB so the high-water mark cannot shrink below it.
  std::vector<char> ballast(8 << 20, 1);
  EXPECT_GE(obs::PeakRssBytes(), before);
  EXPECT_GT(ballast[12345], 0);
}

// ---------------------------------------------------------------------------
// Progress meter
// ---------------------------------------------------------------------------

TEST(ProgressTest, MeterSamplesOnCadence) {
  ProgressMeter meter;
  meter.Configure(100);
  ASSERT_TRUE(meter.enabled());
  meter.Start();

  meter.OnProgress(50, 1);    // below the first threshold: no sample
  meter.OnProgress(99, 2);    // still below
  meter.OnProgress(100, 3);   // crosses 100
  meter.OnProgress(150, 4);   // below 200
  meter.OnProgress(260, 5);   // crosses 200 (and 300 is the next threshold)
  meter.OnProgress(299, 6);   // below 300
  meter.OnProgress(300, 7);   // crosses 300

  const std::vector<ProgressSample> samples = meter.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].comparisons, 100u);
  EXPECT_EQ(samples[0].matches, 3u);
  EXPECT_EQ(samples[1].comparisons, 260u);
  EXPECT_EQ(samples[1].matches, 5u);
  EXPECT_EQ(samples[2].comparisons, 300u);
  EXPECT_EQ(samples[2].matches, 7u);

  // The final unconditional Sample() on the same count updates in place
  // instead of duplicating the point.
  meter.Sample(300, 8);
  ASSERT_EQ(meter.samples().size(), 3u);
  EXPECT_EQ(meter.samples()[2].matches, 8u);

  // Start() resets the curve.
  meter.Start();
  EXPECT_TRUE(meter.samples().empty());
}

TEST(ProgressTest, DisabledMeterNeverSamples) {
  ProgressMeter meter;
  meter.Configure(0);
  EXPECT_FALSE(meter.enabled());
  meter.Start();
  meter.OnProgress(1'000'000, 5);
  EXPECT_TRUE(meter.samples().empty());
}

TEST(ProgressTest, MatchesPerThousandSlope) {
  std::vector<ProgressSample> samples;
  samples.push_back({500, 5, 1.0});    // from origin: 5 / 0.5k = 10
  samples.push_back({1500, 8, 2.0});   // 3 new over 1k = 3
  samples.push_back({1500, 9, 3.0});   // no new comparisons: slope 0
  EXPECT_DOUBLE_EQ(obs::MatchesPerThousand(samples, 0), 10.0);
  EXPECT_DOUBLE_EQ(obs::MatchesPerThousand(samples, 1), 3.0);
  EXPECT_DOUBLE_EQ(obs::MatchesPerThousand(samples, 2), 0.0);
  EXPECT_DOUBLE_EQ(obs::MatchesPerThousand(samples, 99), 0.0);
}

// ---------------------------------------------------------------------------
// Thread-pool utilization stats
// ---------------------------------------------------------------------------

TEST(PoolStatsTest, CountsTasksAndWorkers) {
  ScopedRegistryEnabled on(true);
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 24; ++i) {
    pool.Submit([&ran] {
      ran.fetch_add(1);
      // Spin a moment so busy time is measurable on at least one worker.
      volatile int sink = 0;
      for (int j = 0; j < 50'000; ++j) sink = sink + j;
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 24);

  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.tasks_executed, 24u);
  ASSERT_EQ(stats.worker_busy_micros.size(), 3u);
  EXPECT_EQ(stats.TotalBusyMicros(),
            stats.worker_busy_micros[0] + stats.worker_busy_micros[1] +
                stats.worker_busy_micros[2]);
}

TEST(PoolStatsTest, DisabledRegistrySkipsTimingButCountsTasks) {
  ScopedRegistryEnabled off(false);
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.Submit([] {});
  pool.Wait();
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.tasks_executed, 8u);
  EXPECT_EQ(stats.queue_wait_micros, 0u);
  EXPECT_EQ(stats.TotalBusyMicros(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism parity: instrumentation is out-of-band
// ---------------------------------------------------------------------------

EntityCollection MakeCloud(uint64_t seed) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 220;
  cfg.num_kbs = 4;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud.ok());
  auto collection = cloud->BuildCollection();
  EXPECT_TRUE(collection.ok());
  return std::move(collection).value();
}

using testutil::CanonicalizeCheckpoint;

struct ParityRun {
  ResolutionReport report;
  std::string checkpoint;
};

ParityRun RunInstrumented(const EntityCollection& collection,
                          uint32_t num_threads, bool instrumented,
                          bool pin_threads = false) {
  ScopedRegistryEnabled toggle(instrumented);
  WorkflowOptions options;
  options.progressive.matcher.threshold = 0.3;
  options.num_threads = num_threads;
  options.pin_threads = pin_threads;
  options.obs.enable_trace = instrumented;
  options.obs.progress_every = instrumented ? 100 : 0;

  auto session = ResolutionSession::Open(collection, options);
  EXPECT_TRUE(session.ok());
  // Step in installments so progress sampling and step spans actually fire.
  while (!session->finished()) session->Step(500);

  ParityRun run;
  run.report = session->Report();
  std::ostringstream checkpoint;
  EXPECT_TRUE(session->Checkpoint(checkpoint).ok());
  run.checkpoint = CanonicalizeCheckpoint(checkpoint.str());

  if (instrumented) {
    // The instrumented run must actually have observed something — guards
    // against this test silently comparing two uninstrumented runs.
    EXPECT_FALSE(run.report.progress.empty());
    EXPECT_GT(run.report.metrics.CounterValue("blocking.chunks"), 0u);
    std::ostringstream trace;
    session->WriteTraceJson(trace);
    EXPECT_NE(trace.str().find("\"name\":\"blocking\""), std::string::npos);
    std::ostringstream stats;
    session->WriteStatsJson(stats);
    EXPECT_NE(stats.str().find("\"schema\":\"minoan-stats-v1\""),
              std::string::npos);
  }
  return run;
}

void ExpectSameMatches(const ResolutionReport& a, const ResolutionReport& b) {
  EXPECT_EQ(a.progressive.run.comparisons_executed,
            b.progressive.run.comparisons_executed);
  ASSERT_EQ(a.progressive.run.matches.size(), b.progressive.run.matches.size());
  for (size_t i = 0; i < a.progressive.run.matches.size(); ++i) {
    const MatchEvent& ma = a.progressive.run.matches[i];
    const MatchEvent& mb = b.progressive.run.matches[i];
    EXPECT_EQ(ma.a, mb.a) << "match " << i;
    EXPECT_EQ(ma.b, mb.b) << "match " << i;
    EXPECT_EQ(ma.comparisons_done, mb.comparisons_done) << "match " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(ma.similarity),
              std::bit_cast<uint64_t>(mb.similarity))
        << "match " << i;
  }
}

TEST(ObsParityTest, InstrumentationIsOutOfBand) {
  const EntityCollection collection = MakeCloud(617);
  for (uint32_t num_threads : {1u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    const ParityRun plain =
        RunInstrumented(collection, num_threads, /*instrumented=*/false);
    const ParityRun instrumented =
        RunInstrumented(collection, num_threads, /*instrumented=*/true);

    ExpectSameMatches(plain.report, instrumented.report);
    // Byte-identical checkpoints (wall-clock doubles canonicalized): the
    // obs options are excluded from the options digest by design, so a
    // checkpoint taken with tracing on restores under any obs config.
    EXPECT_EQ(plain.checkpoint, instrumented.checkpoint);
  }
}

TEST(ObsParityTest, ThreadPinningIsOutOfBand) {
  // --pin-threads is a cache-placement hint: at 1 and 4 threads, a pinned
  // run must produce the identical match sequence and (canonicalized)
  // checkpoint bytes as an unpinned one — and like num_threads it is
  // excluded from the options digest, so checkpoints cross over freely.
  const EntityCollection collection = MakeCloud(617);
  for (uint32_t num_threads : {1u, 4u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    const ParityRun unpinned = RunInstrumented(
        collection, num_threads, /*instrumented=*/false, /*pin_threads=*/false);
    const ParityRun pinned = RunInstrumented(
        collection, num_threads, /*instrumented=*/false, /*pin_threads=*/true);
    ExpectSameMatches(unpinned.report, pinned.report);
    EXPECT_EQ(unpinned.checkpoint, pinned.checkpoint);
  }
}

TEST(ObsParityTest, InstrumentedCheckpointRestoresWithoutInstrumentation) {
  const EntityCollection collection = MakeCloud(619);
  WorkflowOptions traced;
  traced.progressive.matcher.threshold = 0.3;
  traced.obs.enable_trace = true;
  traced.obs.progress_every = 50;

  std::string checkpoint;
  {
    ScopedRegistryEnabled on(true);
    auto session = ResolutionSession::Open(collection, traced);
    ASSERT_TRUE(session.ok());
    session->Step(400);
    std::ostringstream out;
    ASSERT_TRUE(session->Checkpoint(out).ok());
    checkpoint = out.str();
  }

  // Restore under different obs settings (tracing off, meter off): the obs
  // options are out-of-band, so the digest matches and the resumed run
  // finishes exactly like an uninterrupted untraced run.
  WorkflowOptions plain;
  plain.progressive.matcher.threshold = 0.3;
  ScopedRegistryEnabled off(false);
  std::istringstream in(checkpoint);
  auto restored = ResolutionSession::Restore(collection, plain, in);
  ASSERT_TRUE(restored.ok());
  restored->Step(0);

  auto reference = ResolutionSession::Open(collection, plain);
  ASSERT_TRUE(reference.ok());
  reference->Step(0);
  ExpectSameMatches(reference->Report(), restored->Report());
}

}  // namespace
}  // namespace minoan
