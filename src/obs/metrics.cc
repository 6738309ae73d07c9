// Copyright 2026 The MinoanER Authors.

#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace minoan {
namespace obs {

uint32_t ThisThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

size_t Histogram::BucketOf(uint64_t value) {
  if (value == 0) return 0;
  size_t bucket = 1;
  while (value > 1 && bucket + 1 < kHistogramBuckets) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

void Histogram::AtomicMin(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::AtomicMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot merged;
  for (const auto& cell : cells_) {
    merged.count += cell.count.load(std::memory_order_relaxed);
    merged.sum += cell.sum.load(std::memory_order_relaxed);
    merged.min = std::min(merged.min, cell.min.load(std::memory_order_relaxed));
    merged.max = std::max(merged.max, cell.max.load(std::memory_order_relaxed));
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      merged.buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

void Histogram::Reset() {
  for (auto& cell : cells_) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
    cell.min.store(std::numeric_limits<uint64_t>::max(),
                   std::memory_order_relaxed);
    cell.max.store(0, std::memory_order_relaxed);
    for (auto& bucket : cell.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The q-quantile is the rank-th smallest sample (nearest-rank, 1-based).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t below = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (below + in_bucket < rank) {
      below += in_bucket;
      continue;
    }
    // Bucket i holds the rank-th sample. Bucket 0 is the exact value 0;
    // bucket i >= 1 spans [2^(i-1), 2^i): interpolate by rank position,
    // then clamp into the exact [min, max] envelope — that makes single
    // samples and all-equal histograms exact, and keeps the tail bucket
    // (which absorbs overflow) from overshooting max.
    double value = 0.0;
    if (i > 0) {
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      const double frac = static_cast<double>(rank - below) /
                          static_cast<double>(in_bucket);
      value = lo + frac * (hi - lo);
    }
    value = std::min(value, static_cast<double>(max));
    value = std::max(value, static_cast<double>(min));
    return value;
  }
  // Buckets inconsistent with count (hand-built snapshot): best effort.
  return static_cast<double>(max);
}

uint64_t StatsSnapshot::CounterValue(std::string_view name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>(&enabled_))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>(&enabled_))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(&enabled_))
             .first;
  }
  return *it->second;
}

StatsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->Value());
  }
  return values;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

ScopedRegistry::ScopedRegistry(MetricsRegistry* parent, std::string label)
    : parent_(parent), label_(std::move(label)) {}

Counter& ScopedRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // Local metrics borrow the parent's master switch: disabling the
    // registry silences scoped shadows too.
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(parent_->enabled_flag()))
             .first;
  }
  return *it->second;
}

Gauge& ScopedRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(parent_->enabled_flag()))
             .first;
  }
  return *it->second;
}

Histogram& ScopedRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(parent_->enabled_flag()))
             .first;
  }
  return *it->second;
}

ScopedCounter ScopedRegistry::scoped_counter(std::string_view name) {
  return ScopedCounter(&parent_->counter(name), &counter(name));
}

StatsSnapshot ScopedRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

void WriteJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\r':
        out << "\\r";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace obs
}  // namespace minoan
