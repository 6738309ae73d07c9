// Copyright 2026 The MinoanER Authors.
// Fixed-size worker pool shared by the parallel phases of a session and by
// the benches.

#ifndef MINOAN_UTIL_THREAD_POOL_H_
#define MINOAN_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace minoan {

/// Utilization snapshot of a pool (see ThreadPool::Stats). All values are
/// cumulative since construction; timing fields are only accumulated while
/// the metrics registry is enabled.
struct ThreadPoolStats {
  uint64_t tasks_executed = 0;
  /// Total time tasks sat queued before a worker picked them up.
  uint64_t queue_wait_micros = 0;
  /// Time each worker spent running task bodies, indexed by worker.
  std::vector<uint64_t> worker_busy_micros;

  uint64_t TotalBusyMicros() const {
    uint64_t total = 0;
    for (uint64_t micros : worker_busy_micros) total += micros;
    return total;
  }
};

/// Construction-time pool behavior knobs.
struct ThreadPoolOptions {
  /// Pin worker i to CPU core (i mod hardware_concurrency). Linux only
  /// (pthread_setaffinity_np); a graceful no-op elsewhere and on affinity
  /// failures. Pinning keeps a worker's per-thread scratch (WorkerScratch)
  /// and its chunk's working set warm in one core's private caches instead
  /// of migrating them across cores mid-phase. Purely a placement hint:
  /// results are identical with pinning on or off.
  bool pin_threads = false;
};

/// A minimal fixed-size thread pool. Tasks are void() callables. An
/// exception escaping a task is captured (first one wins; later ones are
/// dropped) and rethrown from the next Wait()/ParallelFor on the submitting
/// thread; the worker itself survives and keeps serving tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads, ThreadPoolOptions options = {});

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any of them raised (if one did).
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Whether this pool asked for core pinning (the request, not the
  /// per-thread syscall outcome — affinity failures are ignored).
  bool pin_threads() const { return options_.pin_threads; }

  /// Scratch slot of the calling thread: worker i of whichever pool owns
  /// the thread maps to slot i + 1, any non-worker thread (e.g. the
  /// submitting thread running chunks inline) to slot 0. The index a
  /// WorkerScratch sized for this pool is addressed by.
  static size_t CurrentWorkerSlot();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Work is dealt in contiguous chunks to limit scheduling overhead.
  /// Rethrows the first exception thrown by any iteration (remaining chunks
  /// still run to completion before the rethrow).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Utilization so far. Safe to call concurrently with running work; a
  /// snapshot taken while tasks run may miss in-flight increments.
  ThreadPoolStats Stats() const;

 private:
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueued_us = 0;  // 0 when timing was off at enqueue
  };
  struct alignas(64) BusyCell {
    std::atomic<uint64_t> micros{0};
  };

  void WorkerLoop(size_t worker_index);

  ThreadPoolOptions options_;
  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers
  std::condition_variable idle_cv_;   // signals Wait()
  size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_exception_;  // set by workers, drained by Wait()

  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> queue_wait_micros_{0};
  std::unique_ptr<BusyCell[]> worker_busy_;  // one padded cell per worker
};

/// Reusable per-worker scratch arenas for chunk dispatch: one T per worker
/// of the pool it is sized for, plus slot 0 for the submitting thread (the
/// inline path when no pool is given). Local() hands each thread its own
/// arena, so per-chunk buffers are allocated once per phase instead of once
/// per chunk, and (with pin_threads) stay resident in one core's cache.
///
/// Contract: call Local() only from chunks dispatched on the pool this
/// scratch was constructed for (or inline when constructed with nullptr);
/// no synchronization is needed because each slot is owned by exactly one
/// thread for the duration of the phase.
template <typename T>
class WorkerScratch {
 public:
  explicit WorkerScratch(const ThreadPool* pool)
      : slots_(pool == nullptr ? 1 : pool->num_threads() + 1) {}

  /// The calling thread's private arena.
  T& Local() {
    const size_t slot = ThreadPool::CurrentWorkerSlot();
    return slots_[slot < slots_.size() ? slot : 0];
  }

  size_t num_slots() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
};

/// Resolves the "0 = hardware concurrency" convention shared by every
/// num_threads knob (workflow, meta-blocking, progressive, online).
inline uint32_t ResolveThreadCount(uint32_t num_threads) {
  return num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                          : num_threads;
}

/// Runs fn(i) for i in [0, count) — on the pool when given, inline
/// otherwise. The shared dispatch of every sharded phase (blocking postings,
/// graph-view construction, pruning): each i is a fixed unit of work (an
/// entity chunk, a block chunk, a vote shard), so results never depend on
/// which thread ran it.
template <typename Fn>
void RunPoolTasks(ThreadPool* pool, size_t count, const Fn& fn) {
  if (pool != nullptr && count > 1) {
    pool->ParallelFor(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

/// Allocator whose value-initialization (vector(n), resize(n)) leaves a
/// trivially copyable element unwritten, so a large array is first touched
/// by the parallel pass that writes every element of it, not by a serial
/// zero fill that pays every page fault first. Every other construction
/// (push_back, copies) is the usual one.
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };
  NoInitAllocator() = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector of trivially copyable elements that resize(n) leaves unwritten.
template <typename T>
using NoInitVector = std::vector<T, NoInitAllocator<T>>;

/// Least number of elements worth one task of a parallel pass over an
/// array (ParallelSort's pieces, the schedule build's passes); ParallelSort
/// sorts an input of fewer than two per worker with one std::sort.
inline constexpr size_t kParallelGrain = size_t{1} << 12;

namespace sort_internal {

/// Merge path: how many of the first k elements of the stable merge of the
/// sorted runs a[0, m) and b[0, l) come from a (std::merge takes from a on
/// ties).
template <typename T, typename Less>
size_t MergeCoRank(const T* a, size_t m, const T* b, size_t l, size_t k,
                   Less& less) {
  size_t lo = k > l ? k - l : 0;
  size_t hi = std::min(k, m);
  while (lo < hi) {
    const size_t i = lo + (hi - lo) / 2;
    if (less(b[k - i - 1], a[i])) {
      hi = i;
    } else {
      lo = i + 1;
    }
  }
  return lo;
}

}  // namespace sort_internal

/// Sorts `data` by `less` on `pool`: one contiguous piece per worker is
/// sorted in parallel, then the sorted runs are merged pairwise, each merge
/// cut at merge-path co-ranks into pieces that also run in parallel (through
/// a buffer the size of `data`). Without a pool, or below two grains per
/// worker, it is std::sort. Under a strict total order the result is the
/// one sorted permutation, so it does not depend on the pool size;
/// equivalent elements end in an unspecified order.
template <typename T, typename Less>
void ParallelSort(ThreadPool* pool, std::span<T> data, Less less) {
  const size_t n = data.size();
  const size_t threads = pool == nullptr ? 1 : pool->num_threads();
  const size_t pieces = std::min(threads, n / kParallelGrain);
  if (pieces < 2) {
    std::sort(data.begin(), data.end(), less);
    return;
  }
  std::unique_ptr<T[]> buffer = std::make_unique_for_overwrite<T[]>(n);
  // Each merge round moves the runs to the other array; with an odd number
  // of rounds the pieces are sorted in the buffer, so the last round lands
  // in `data`.
  size_t rounds = 0;
  for (size_t runs = pieces; runs > 1; runs = (runs + 1) / 2) ++rounds;
  T* src = rounds % 2 == 0 ? data.data() : buffer.get();
  T* dst = rounds % 2 == 0 ? buffer.get() : data.data();
  std::vector<size_t> bounds(pieces + 1);
  for (size_t p = 0; p <= pieces; ++p) bounds[p] = n * p / pieces;
  RunPoolTasks(pool, pieces, [&](size_t p) {
    if (src != data.data()) {
      std::copy(data.data() + bounds[p], data.data() + bounds[p + 1],
                src + bounds[p]);
    }
    std::sort(src + bounds[p], src + bounds[p + 1], less);
  });

  // Runs 2r and 2r + 1 merge into one; a trailing lone run merges with an
  // empty one (a copy). Every merge is cut into output pieces of about
  // n / threads elements.
  struct Piece {
    size_t lo, mid, hi;  // the two input runs [lo, mid) and [mid, hi)
    size_t begin, end;   // output range, within [lo, hi)
  };
  const size_t piece_len =
      std::max(kParallelGrain, (n + threads - 1) / threads);
  std::vector<Piece> work;
  while (bounds.size() > 2) {
    work.clear();
    std::vector<size_t> merged;
    for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const size_t lo = bounds[r];
      const size_t mid = bounds[r + 1];
      const size_t hi = r + 2 < bounds.size() ? bounds[r + 2] : mid;
      for (size_t begin = lo; begin < hi; begin += piece_len) {
        work.push_back(
            Piece{lo, mid, hi, begin, std::min(hi, begin + piece_len)});
      }
      merged.push_back(lo);
    }
    merged.push_back(n);
    RunPoolTasks(pool, work.size(), [&](size_t w) {
      const Piece& p = work[w];
      const T* a = src + p.lo;
      const T* b = src + p.mid;
      const size_t m = p.mid - p.lo;
      const size_t l = p.hi - p.mid;
      const size_t i0 =
          sort_internal::MergeCoRank(a, m, b, l, p.begin - p.lo, less);
      const size_t i1 =
          sort_internal::MergeCoRank(a, m, b, l, p.end - p.lo, less);
      std::merge(a + i0, a + i1, b + (p.begin - p.lo - i0),
                 b + (p.end - p.lo - i1), dst + p.begin, less);
    });
    bounds.swap(merged);
    std::swap(src, dst);
  }
}

/// Number of fixed-size chunks covering [0, total). One definition of the
/// boundary math shared by every chunked phase — sizing per-chunk result
/// buffers and dealing the work must agree exactly.
inline size_t NumChunks(size_t total, size_t chunk_size) {
  return (total + chunk_size - 1) / chunk_size;
}

/// Deals [0, total) into fixed-size chunks and runs fn(chunk, begin, end)
/// for each, via RunPoolTasks. Chunk boundaries depend only on
/// (total, chunk_size) — never on the worker count — which is what makes
/// chunk-ordered merges deterministic.
template <typename Fn>
void RunChunkedTasks(ThreadPool* pool, size_t total, size_t chunk_size,
                     const Fn& fn) {
  RunPoolTasks(pool, NumChunks(total, chunk_size), [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(total, begin + chunk_size);
    fn(c, begin, end);
  });
}

/// Flattens per-task result vectors in task order, draining `parts` — the
/// merge step of every chunked phase: partial results are produced per
/// chunk (or shard) and must be concatenated in fixed task order to stay
/// deterministic.
template <typename T>
std::vector<T> FlattenInOrder(std::vector<std::vector<T>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
    p.clear();
  }
  return out;
}

}  // namespace minoan

#endif  // MINOAN_UTIL_THREAD_POOL_H_
