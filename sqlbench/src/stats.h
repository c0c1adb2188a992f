// Copyright 2026 The CrackStore Authors
//
// Percentile and decile math of the SQL benchmark. Deciles are contiguous
// tenths of a statement stream in completion order, so cost that grows with
// accumulated state shows as rising decile medians instead of hiding inside
// a whole-run median.

#ifndef SQLBENCH_STATS_H_
#define SQLBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace sqlbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// closest ranks (numpy's default). 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// [begin, end) of tenth `d` (0..9) of a stream of `n` statements. The
/// tenths tile the stream exactly; sizes differ by at most one.
inline std::pair<size_t, size_t> DecileBounds(size_t n, size_t d) {
  return {d * n / 10, (d + 1) * n / 10};
}

/// Per-decile statistics pooled over rounds: each round is one run of the
/// same fixed-length stream, and decile d collects tenth d of every round.
struct DecileTable {
  std::vector<double> pooled[10];  ///< latencies of tenth d, all rounds
  double sum[10] = {};             ///< summed latency of tenth d, all rounds
  size_t rounds = 0;

  void AddRound(const std::vector<double>& latencies) {
    for (size_t d = 0; d < 10; ++d) {
      const auto [b, e] = DecileBounds(latencies.size(), d);
      for (size_t i = b; i < e; ++i) {
        pooled[d].push_back(latencies[i]);
        sum[d] += latencies[i];
      }
    }
    ++rounds;
  }

  double MedianOf(size_t d) const { return Median(pooled[d]); }
  /// Summed latency of tenth d in one round (mean over rounds).
  double SumPerRound(size_t d) const {
    return rounds == 0 ? 0.0 : sum[d] / static_cast<double>(rounds);
  }
};

}  // namespace sqlbench

#endif  // SQLBENCH_STATS_H_
