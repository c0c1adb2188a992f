// Copyright 2026 The CrackStore Authors
//
// Self-check of the SQL benchmark's own helpers: percentile and decile
// math, the closed-form permutation oracle against a brute-force scan at
// small N, the write ledger against a row-by-row model, and the input
// generators' determinism. Exits 1 on the first failed check.
//
//   python3 sqlbench/run.py --selfcheck

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "oracle.h"
#include "rng.h"
#include "stats.h"

namespace sqlbench {
namespace {

int g_checks = 0;

void Expect(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "selfcheck FAILED (line %d): %s\n", line, what);
    std::exit(1);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void CheckPercentiles() {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT(Near(Percentile(v, 0), 1));
  EXPECT(Near(Percentile(v, 25), 1.75));
  EXPECT(Near(Percentile(v, 50), 2.5));
  EXPECT(Near(Percentile(v, 100), 4));
  EXPECT(Near(Median({7}), 7));
  EXPECT(Near(Median({}), 0));
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT(Near(Percentile(hundred, 99), 100));
}

void CheckDeciles() {
  for (size_t n = 0; n <= 257; ++n) {
    size_t next = 0;
    for (size_t d = 0; d < 10; ++d) {
      const auto [b, e] = DecileBounds(n, d);
      EXPECT(b == next);
      EXPECT(e >= b && e - b <= n / 10 + 1 && e - b + 1 >= n / 10);
      next = e;
    }
    EXPECT(next == n);
  }
  DecileTable t;
  std::vector<double> lat;
  for (int i = 0; i < 100; ++i) lat.push_back(i);
  t.AddRound(lat);
  t.AddRound(lat);
  EXPECT(Near(t.MedianOf(0), 4.5));
  EXPECT(Near(t.MedianOf(9), 94.5));
  EXPECT(Near(t.SumPerRound(0), 45));
  EXPECT(t.pooled[3].size() == 20);
}

void CheckPermutationOracle() {
  Rng rng(42);
  for (int64_t n = 1; n <= 40; ++n) {
    const std::vector<int64_t> col =
        Permutation(static_cast<uint64_t>(n), &rng);
    EXPECT(std::set<int64_t>(col.begin(), col.end()).size() ==
           static_cast<size_t>(n));
    for (int64_t lo = -2; lo <= n + 2; ++lo) {
      for (int64_t hi = lo - 1; hi <= n + 2; ++hi) {
        RangeAggregates scan;
        for (int64_t v : col) {
          if (v < lo || v > hi) continue;
          scan.min = scan.count == 0 ? v : std::min(scan.min, v);
          scan.max = scan.count == 0 ? v : std::max(scan.max, v);
          ++scan.count;
          scan.sum += v;
        }
        const RangeAggregates want = PermutationRange(n, lo, hi);
        EXPECT(want.count == scan.count);
        EXPECT(want.sum == scan.sum);
        if (scan.count > 0) {
          EXPECT(want.min == scan.min);
          EXPECT(want.max == scan.max);
        }
      }
    }
  }
}

// The ledger against a literal model: the table's c0 column as a multiset.
void CheckWriteLedger() {
  constexpr int64_t kKeys = 30;
  Rng rng(7);
  WriteLedger ledger(kKeys);
  std::vector<int64_t> rows;  // committed c0 values
  for (int64_t k = 1; k <= kKeys; ++k) rows.push_back(k);
  uint64_t bytes = 0;
  auto count = [](const std::vector<int64_t>& r, int64_t k) {
    uint64_t n = 0;
    for (int64_t v : r) n += v == k;
    return n;
  };
  for (int txn = 0; txn < 2000; ++txn) {
    ledger.Begin();
    std::vector<int64_t> work = rows;
    uint64_t work_bytes = bytes;
    const int ops = static_cast<int>(rng.Between(1, 4));
    for (int i = 0; i < ops; ++i) {
      const int64_t k = rng.Between(1, kKeys + 3);
      switch (rng.Below(3)) {
        case 0:
          ledger.Insert(k, 2);
          work.push_back(k);
          work_bytes += 16;
          break;
        case 1: {
          const uint64_t touched = count(work, k);
          EXPECT(ledger.CountOf(k) == touched);
          ledger.Update(touched);
          work_bytes += 8 * touched;
          break;
        }
        default: {
          EXPECT(ledger.CountOf(k) == count(work, k));
          ledger.Delete(k);
          std::vector<int64_t> kept;
          for (int64_t v : work) {
            if (v != k) kept.push_back(v);
          }
          work.swap(kept);
          break;
        }
      }
    }
    if (rng.Below(4) == 0) {
      ledger.Rollback();
    } else {
      ledger.Commit();
      rows.swap(work);
      bytes = work_bytes;
    }
    int64_t sum = 0;
    for (int64_t v : rows) sum += v;
    EXPECT(ledger.rows_delta() == static_cast<int64_t>(rows.size()) - kKeys);
    EXPECT(ledger.sum_c0_delta() == sum - kKeys * (kKeys + 1) / 2);
    EXPECT(ledger.user_bytes() == bytes);
    for (int64_t k = 0; k <= kKeys + 3; ++k) {
      EXPECT(ledger.CountOf(k) == count(rows, k));
    }
  }
}

void CheckGenerators() {
  Rng a(StreamSeed(5, 1, 2)), b(StreamSeed(5, 1, 2)), c(StreamSeed(5, 1, 3));
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT(x == b.Next());
    differs = differs || x != c.Next();
  }
  EXPECT(differs);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = a.Between(-3, 3);
    EXPECT(v >= -3 && v <= 3);
    const double u = a.LogUniform(1e-5, 1e-2);
    EXPECT(u >= 1e-5 && u < 1e-2 * (1 + 1e-12));
  }
  const ZipfTable zipf(1000, 0.99);
  EXPECT(Near(zipf.Cdf(zipf.size() - 1), 1.0));
  std::vector<uint64_t> hits(1000, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++hits[zipf.Sample(&a)];
  const double p0 = zipf.Cdf(0);
  EXPECT(std::fabs(static_cast<double>(hits[0]) / draws - p0) < 0.01);
  EXPECT(hits[0] > hits[9] && hits[9] > hits[99]);
}

}  // namespace
}  // namespace sqlbench

int main() {
  sqlbench::CheckPercentiles();
  sqlbench::CheckDeciles();
  sqlbench::CheckPermutationOracle();
  sqlbench::CheckWriteLedger();
  sqlbench::CheckGenerators();
  std::printf("sqlbench selfcheck: %d checks passed\n", sqlbench::g_checks);
  return 0;
}
