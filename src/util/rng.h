// Copyright 2026 The MinoanER Authors.
// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in MinoanER (data generation, sampling, shuffles)
// flows from a single seeded `Rng`, so that every experiment is exactly
// reproducible. The generator is xoshiro256**, seeded via splitmix64, which
// is both faster and of higher statistical quality than std::mt19937_64 while
// keeping the state at 32 bytes.

#ifndef MINOAN_UTIL_RNG_H_
#define MINOAN_UTIL_RNG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace minoan {

/// splitmix64 step; used for seeding and cheap hash mixing.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** deterministic PRNG. Satisfies the subset of
/// UniformRandomBitGenerator needed by <algorithm> shuffles.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator whose whole stream is determined by `seed`.
  explicit Rng(uint64_t seed = 0x6d696e6f616eULL) { Reseed(seed); }

  /// Resets the stream as if freshly constructed with `seed`.
  void Reseed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64 random bits.
  uint64_t operator()() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t Below(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
  bool Chance(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t state_[4];
};

/// Samples ranks from a Zipf (power-law) distribution over {0, .., n-1} with
/// exponent `s`, using precomputed cumulative weights (O(log n) per draw).
/// Rank 0 is the most popular. Used for the skewed KB link-popularity in the
/// synthetic LOD cloud (the poster: "popularity in links is heavily skewed").
class ZipfSampler {
 public:
  /// Builds the sampler for `n` ranks with skew exponent `s >= 0`
  /// (s = 0 degenerates to uniform).
  ZipfSampler(uint32_t n, double s);

  /// Draws a rank in [0, n).
  uint32_t Sample(Rng& rng) const;

  uint32_t size() const { return static_cast<uint32_t>(cdf_.size()); }

  /// Probability mass of rank `k`.
  double Pmf(uint32_t k) const;

 private:
  std::vector<double> cdf_;  // normalized cumulative weights
};

}  // namespace minoan

#endif  // MINOAN_UTIL_RNG_H_
