// Copyright 2026 The CrackStore Authors
//
// Seeded input generators of the SQL benchmark. They are deliberately
// independent of src/workload, so a library change cannot move the inputs
// the benchmark measures: the same --seed always yields the same tables and
// statement streams.

#ifndef SQLBENCH_RNG_H_
#define SQLBENCH_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace sqlbench {

/// One SplitMix64 step: advances `*state` and returns a mixed 64-bit value.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Derives the seed of an independent stream (table, round, client) from
/// the run seed, so streams never overlap however many a run draws.
inline uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t s = seed;
  uint64_t x = SplitMix64(&s);
  s = x ^ (a * 0xD1B54A32D192ED03ull);
  x = SplitMix64(&s);
  s = x ^ (b * 0x8CB92BA72F3D8DD7ull);
  return SplitMix64(&s);
}

/// xoshiro256** — small, fast and well distributed.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) w = SplitMix64(&seed);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n); n > 0. Lemire's multiply-shift (bias < n / 2^64).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform in [lo, hi], inclusive.
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Log-uniform in [lo, hi); 0 < lo <= hi.
  double LogUniform(double lo, double hi) {
    return std::exp(std::log(lo) + Uniform() * (std::log(hi) - std::log(lo)));
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// A uniformly random permutation of 1..n (Fisher-Yates).
inline std::vector<int64_t> Permutation(uint64_t n, Rng* rng) {
  std::vector<int64_t> v(n);
  std::iota(v.begin(), v.end(), int64_t{1});
  for (uint64_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng->Below(i)]);
  return v;
}

/// Zipf(s) over ranks 0..n-1 (rank 0 hottest), sampled by binary search in
/// a precomputed CDF: exact, and cheap next to a SQL statement.
class ZipfTable {
 public:
  ZipfTable(uint64_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }

  uint64_t Sample(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()),
                              cdf_.size() - 1);
  }

  uint64_t size() const { return cdf_.size(); }
  /// P(rank <= r).
  double Cdf(uint64_t r) const { return cdf_[r]; }

 private:
  std::vector<double> cdf_;
};

}  // namespace sqlbench

#endif  // SQLBENCH_RNG_H_
