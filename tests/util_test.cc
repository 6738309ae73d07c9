// Unit tests for the util module: Status/Result, RNG, interner, hashing,
// TopK, tables, the thread pool, and the atomic file writer.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "gtest/gtest.h"
#include "util/atomic_file.h"
#include "util/hash.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace minoan {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad knob");
}

TEST(StatusTest, AllFactoriesProduceTheirCode) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value_or(0), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-7), -7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Result<int> DoubleIfPositive(int x) {
  MINOAN_RETURN_IF_ERROR(FailIfNegative(x));
  return x * 2;
}

Result<int> ChainedViaMacro(int x) {
  MINOAN_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(DoubleIfPositive(3).ok());
  EXPECT_EQ(*DoubleIfPositive(3), 6);
  EXPECT_FALSE(DoubleIfPositive(-1).ok());
}

TEST(ResultTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(ChainedViaMacro(5).ok());
  EXPECT_EQ(*ChainedViaMacro(5), 11);
  EXPECT_EQ(ChainedViaMacro(-5).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformInclusiveBounds) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfSamplerTest, RankZeroMostPopular) {
  ZipfSampler zipf(100, 1.2);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(50));
}

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(64, 0.9);
  double total = 0;
  for (uint32_t k = 0; k < zipf.size(); ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SamplesWithinRangeAndSkewed) {
  ZipfSampler zipf(50, 1.5);
  Rng rng(31);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint32_t k = zipf.Sample(rng);
    ASSERT_LT(k, 50u);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 10);  // rank 0 holds a large share
}

TEST(ZipfSamplerTest, ZeroSkewIsUniformish) {
  ZipfSampler zipf(10, 0.0);
  for (uint32_t k = 0; k + 1 < zipf.size(); ++k) {
    EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  // "a" — standard published value.
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, PairKeyOrdersEndpoints) {
  EXPECT_EQ(PairKey(3, 9), PairKey(9, 3));
  EXPECT_EQ(PairKeyFirst(PairKey(9, 3)), 3u);
  EXPECT_EQ(PairKeySecond(PairKey(9, 3)), 9u);
}

TEST(HashTest, PairHashSymmetric) {
  EXPECT_EQ(PairHash(1, 2), PairHash(2, 1));
  EXPECT_NE(PairHash(1, 2), PairHash(1, 3));
}

TEST(HashTest, Mix64ChangesValue) {
  EXPECT_NE(Mix64(1), 1u);
  EXPECT_NE(Mix64(1), Mix64(2));
}

// ---------------------------------------------------------------------------
// StringInterner
// ---------------------------------------------------------------------------

TEST(InternerTest, AssignsDenseIdsInFirstSeenOrder) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.Intern("beta"), 1u);
  EXPECT_EQ(interner.Intern("alpha"), 0u);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, ViewRoundTrips) {
  StringInterner interner;
  const uint32_t id = interner.Intern("heraklion");
  EXPECT_EQ(interner.View(id), "heraklion");
}

TEST(InternerTest, FindWithoutInsert) {
  StringInterner interner;
  interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), 0u);
  EXPECT_EQ(interner.Find("absent"), kInternNotFound);
}

TEST(InternerTest, EmptyStringIsInternable) {
  StringInterner interner;
  const uint32_t id = interner.Intern("");
  EXPECT_EQ(interner.View(id), "");
  EXPECT_EQ(interner.Find(""), id);
}

TEST(InternerTest, SurvivesRehashWithManyStrings) {
  StringInterner interner;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 20000; ++i) {
    ids.push_back(interner.Intern("tok_" + std::to_string(i)));
  }
  EXPECT_EQ(interner.size(), 20000u);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(interner.Find("tok_" + std::to_string(i)), ids[i]);
    EXPECT_EQ(interner.View(ids[i]), "tok_" + std::to_string(i));
  }
}

TEST(InternerTest, BinaryContentSafe) {
  StringInterner interner;
  const std::string weird{"a\0b", 3};
  const uint32_t id = interner.Intern(weird);
  EXPECT_EQ(interner.View(id), std::string_view(weird));
  EXPECT_EQ(interner.Find(weird), id);
  EXPECT_EQ(interner.Find("a"), kInternNotFound);
}

// ---------------------------------------------------------------------------
// TopK
// ---------------------------------------------------------------------------

TEST(TopKTest, KeepsLargest) {
  TopK<int> top(3);
  for (int v : {5, 1, 9, 3, 7, 2}) top.Push(v);
  EXPECT_EQ(top.TakeSortedDescending(), (std::vector<int>{9, 7, 5}));
}

TEST(TopKTest, FewerThanK) {
  TopK<int> top(10);
  top.Push(2);
  top.Push(1);
  EXPECT_EQ(top.TakeSortedDescending(), (std::vector<int>{2, 1}));
}

TEST(TopKTest, ZeroCapacityIgnoresAll) {
  TopK<int> top(0);
  top.Push(1);
  EXPECT_TRUE(top.empty());
}

TEST(TopKTest, DuplicatesRetained) {
  TopK<int> top(3);
  for (int v : {4, 4, 4, 1}) top.Push(v);
  EXPECT_EQ(top.TakeSortedDescending(), (std::vector<int>{4, 4, 4}));
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, PrintsAlignedHeaderAndRows) {
  Table t({"name", "count"});
  t.AddRow().Cell("alpha").Cell(uint64_t{42});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, DoubleFormatting) {
  Table t({"x"});
  t.AddRow().Cell(3.14159, 2);
  EXPECT_EQ(t.row(0)[0], "3.14");
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatPercent(0.123, 1), "12.3%");
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, PinnedPoolExecutesAllTasks) {
  // Pinning is a placement hint; the pool must behave identically with it
  // on — including when workers outnumber cores and wrap around.
  ThreadPool pool(8, ThreadPoolOptions{/*pin_threads=*/true});
  EXPECT_TRUE(pool.pin_threads());
  std::atomic<int> count{0};
  pool.ParallelFor(500, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, UnpinnedIsTheDefault) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.pin_threads());
}

TEST(ThreadPoolTest, WorkerSlotsAreDistinctAndInRange) {
  ThreadPool pool(4);
  // The submitting thread is slot 0; each worker owns slot i + 1.
  EXPECT_EQ(ThreadPool::CurrentWorkerSlot(), 0u);
  std::mutex mu;
  std::set<size_t> seen;
  std::condition_variable cv;
  size_t arrived = 0;
  // Park every worker until all four checked in, so each reports from a
  // distinct thread.
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      seen.insert(ThreadPool::CurrentWorkerSlot());
      if (++arrived == 4) cv.notify_all();
      cv.wait(lock, [&] { return arrived == 4; });
    });
  }
  pool.Wait();
  EXPECT_EQ(seen, (std::set<size_t>{1, 2, 3, 4}));
}

TEST(WorkerScratchTest, LocalIsPerThreadAndReused) {
  ThreadPool pool(3);
  WorkerScratch<std::vector<int>> scratch(&pool);
  EXPECT_EQ(scratch.num_slots(), 4u);  // 3 workers + inline slot 0
  // Every chunk appends to its thread's arena; arenas never interleave
  // within one chunk even when chunks race, so the total survives.
  std::atomic<int> total{0};
  pool.ParallelFor(300, [&](size_t i) {
    std::vector<int>& local = scratch.Local();
    local.push_back(static_cast<int>(i));
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 300);

  // Inline use without a pool lands every call in slot 0.
  WorkerScratch<std::vector<int>> inline_scratch(nullptr);
  EXPECT_EQ(inline_scratch.num_slots(), 1u);
  inline_scratch.Local().push_back(7);
  EXPECT_EQ(inline_scratch.Local().size(), 1u);
  EXPECT_EQ(inline_scratch.Local()[0], 7);
}

// ---------------------------------------------------------------------------
// ParallelSort
// ---------------------------------------------------------------------------

// (weight desc, id asc): a total order with many equal weights.
struct Weighted {
  double weight;
  uint32_t id;
  bool operator==(const Weighted&) const = default;
};
bool WeightedBefore(const Weighted& x, const Weighted& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  return x.id < y.id;
}

TEST(ParallelSortTest, MatchesStdSortAtEveryPoolSize) {
  const size_t kGrain = kParallelGrain;
  const std::vector<size_t> sizes = {
      0,          1,          2,          kGrain - 1,     kGrain,
      kGrain + 1, 2 * kGrain - 1, 2 * kGrain, 2 * kGrain + 1, 7 * kGrain + 3,
      100003};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const size_t threads : {1, 2, 3, 4, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  pools.push_back(nullptr);
  Rng rng(2026);
  for (const size_t n : sizes) {
    std::vector<Weighted> input(n);
    for (size_t i = 0; i < n; ++i) {
      // 16 distinct weights: long runs of ties broken by the id.
      input[i] = {static_cast<double>(rng.Below(16)) / 4.0,
                  static_cast<uint32_t>(i)};
    }
    rng.Shuffle(input);
    std::vector<Weighted> want = input;
    std::sort(want.begin(), want.end(), WeightedBefore);
    for (const auto& pool : pools) {
      std::vector<Weighted> got = input;
      ParallelSort(pool.get(), std::span<Weighted>(got), WeightedBefore);
      EXPECT_EQ(got, want) << "n " << n << " threads "
                           << (pool ? pool->num_threads() : 0);
    }
  }
}

TEST(ParallelSortTest, SortedAndReversedInputs) {
  ThreadPool pool(4);
  std::vector<uint64_t> ascending(50000);
  std::iota(ascending.begin(), ascending.end(), uint64_t{0});
  std::vector<uint64_t> got = ascending;
  ParallelSort(&pool, std::span<uint64_t>(got), std::less<>());
  EXPECT_EQ(got, ascending);
  std::reverse(got.begin(), got.end());
  ParallelSort(&pool, std::span<uint64_t>(got), std::less<>());
  EXPECT_EQ(got, ascending);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  // Elapsed must be non-negative and grow monotonically.
  const int64_t a = watch.ElapsedMicros();
  const int64_t b = watch.ElapsedMicros();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  watch.Restart();
  EXPECT_GE(watch.ElapsedMicros(), 0);
}

TEST(StopwatchTest, UnitsAreConsistent) {
  Stopwatch watch;
  // Busy-wait a hair so the reading is non-trivially positive, then take
  // one micros reading and check the derived units scale from it (separate
  // Elapsed* calls would each re-read the clock, so compare with slack).
  while (watch.ElapsedMicros() < 200) {
  }
  const int64_t micros = watch.ElapsedMicros();
  EXPECT_GE(micros, 200);
  EXPECT_GE(watch.ElapsedMillis(), static_cast<double>(micros) / 1000.0);
  EXPECT_LT(watch.ElapsedMillis(), 60'000.0);
}

TEST(StopwatchTest, RestartResetsTheEpoch) {
  Stopwatch watch;
  while (watch.ElapsedMicros() < 500) {
  }
  watch.Restart();
  // Immediately after Restart the elapsed time must be far below the
  // pre-restart reading (generous bound: half of it).
  EXPECT_LT(watch.ElapsedMicros(), 250);
}

// ---------------------------------------------------------------------------
// WriteFileAtomic
// ---------------------------------------------------------------------------

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(AtomicFileTest, ReplacesTheFileAndReportsItsSize) {
  const std::string path = ::testing::TempDir() + "minoan-atomic-ok.bin";
  auto written = WriteFileAtomic(path, [](std::ostream& out) {
    out << "first";
    return Status::Ok();
  });
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, 5u);
  written = WriteFileAtomic(path, [](std::ostream& out) {
    out << "second!";
    return Status::Ok();
  });
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 7u);
  EXPECT_EQ(ReadWhole(path), "second!");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, FailedWriteKeepsThePreviousFileAndNoTemp) {
  const std::string path = ::testing::TempDir() + "minoan-atomic-fail.bin";
  ASSERT_TRUE(WriteFileAtomic(path, [](std::ostream& out) {
                out << "kept";
                return Status::Ok();
              }).ok());
  const auto failed = WriteFileAtomic(path, [](std::ostream& out) {
    out << "torn half";
    return Status::IoError("writer gave up");
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadWhole(path), "kept");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // An unwritable location fails cleanly too.
  EXPECT_FALSE(WriteFileAtomic(::testing::TempDir() + "no-such-dir/x.bin",
                               [](std::ostream&) { return Status::Ok(); })
                   .ok());
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, RefusesToReplaceASpecialFile) {
  const std::string path = ::testing::TempDir() + "minoan-atomic-fifo";
  std::filesystem::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const auto written = WriteFileAtomic(path, [](std::ostream& out) {
    out << "links";
    return Status::Ok();
  });
  ASSERT_FALSE(written.ok());
  EXPECT_NE(written.status().message().find(path), std::string::npos);
  EXPECT_TRUE(std::filesystem::is_fifo(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace minoan
