// Copyright 2026 The MinoanER Authors.
// Wall-clock measurement helpers for benches and phase accounting.

#ifndef MINOAN_UTIL_STOPWATCH_H_
#define MINOAN_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace minoan {

/// Monotonic wall-clock stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Microseconds elapsed since construction or the last Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Milliseconds elapsed (fractional).
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedMicros()) / 1000.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace minoan

#endif  // MINOAN_UTIL_STOPWATCH_H_
