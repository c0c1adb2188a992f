// Copyright 2026 The CrackStore Authors
//
// google-benchmark micro suite for the core primitives: crack kernels vs a
// plain scan vs std::sort, plus whole cracker-index query paths. These
// numbers ground the claim of §2.2 that "with proper engineering the total
// CPU cost for such an incremental scheme is in the same order of magnitude
// as sorting".
//
// `--json=PATH` switches to a self-contained SIMD-tier comparison: every
// supported kernel tier (scalar / predicated / avx2 / neon) cracks 1M rows
// per element type and selectivity, and the medians land in PATH as JSON —
// plus an aggregate-pushdown comparison (SUM over a warmed cracked int32
// column via span kernels vs materialize-then-loop) and a candidate-list
// comparison (a warm two-leg COUNT via the store vs collect-sort-intersect).
// CI's bench-smoke lane reads `dispatched_vs_scalar_int32`,
// `agg_pushdown_vs_materialize_int32` and
// `conjunction_candidates_vs_intersect` from that file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/adaptive_store.h"
#include "core/crack_kernels.h"
#include "core/cracker_index.h"
#include "core/oid_set_ops.h"
#include "core/simd_dispatch.h"
#include "core/sorted_column.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::vector<int64_t> RandomValues(size_t n, uint64_t seed = 99) {
  Pcg32 rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.NextInRange(0, static_cast<int64_t>(n));
  return v;
}

void BM_Scan(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data = RandomValues(n);
  int64_t pivot = static_cast<int64_t>(n / 2);
  for (auto _ : state) {
    uint64_t count = 0;
    for (int64_t v : data) count += v < pivot;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Scan)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_CrackInTwo(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> original = RandomValues(n);
  std::vector<int64_t> data(n);
  int64_t pivot = static_cast<int64_t>(n / 2);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    CrackSplit split = CrackInTwoLt(data.data(), nullptr, n, pivot);
    benchmark::DoNotOptimize(split.split);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CrackInTwo)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_CrackInThree(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> original = RandomValues(n);
  std::vector<int64_t> data(n);
  int64_t lo = static_cast<int64_t>(n / 3);
  int64_t hi = static_cast<int64_t>(2 * n / 3);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    Crack3Split split =
        CrackInThree(data.data(), nullptr, n, lo, true, hi, true);
    benchmark::DoNotOptimize(split.first);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CrackInThree)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_StdSort(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> original = RandomValues(n);
  std::vector<int64_t> data(n);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    std::sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StdSort)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_CrackerIndexQuerySequence(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto column = BuildPermutationColumn(n, 7, "perm");
  int64_t width = static_cast<int64_t>(n / 20);
  for (auto _ : state) {
    state.PauseTiming();
    CrackerIndex<int64_t> index(column);
    Pcg32 rng(11);
    state.ResumeTiming();
    for (int q = 0; q < 64; ++q) {
      int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - width);
      benchmark::DoNotOptimize(
          index.Select(lo, true, lo + width - 1, true).count());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CrackerIndexQuerySequence)->Arg(1 << 18)->Arg(1 << 20);

/// `n` ascending oids sampled from [0, universe) without duplicates.
std::vector<Oid> RandomOidList(size_t n, Oid universe, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Oid> out;
  out.reserve(n);
  // Stride sampling keeps the list uniform and strictly ascending.
  Oid stride = universe / static_cast<Oid>(n);
  Oid at = 0;
  for (size_t i = 0; i < n && at < universe; ++i) {
    at += 1 + rng.NextBounded(static_cast<uint32_t>(
                   std::max<Oid>(1, 2 * stride - 1)));
    out.push_back(at);
  }
  return out;
}

/// The conjunction intersect at a given size skew: small = large / ratio.
/// ratio 1 exercises the linear merge, larger ratios the galloping search
/// (IntersectSorted switches at kGallopRatio).
void BM_IntersectSorted(benchmark::State& state) {
  size_t large_n = 1 << 20;
  size_t ratio = static_cast<size_t>(state.range(0));
  size_t small_n = large_n / ratio;
  Oid universe = static_cast<Oid>(large_n) * 4;
  std::vector<Oid> small = RandomOidList(small_n, universe, 17);
  std::vector<Oid> large = RandomOidList(large_n, universe, 23);
  for (auto _ : state) {
    std::vector<Oid> out = IntersectSorted(small, large);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(small_n + large_n));
}
BENCHMARK(BM_IntersectSorted)->Arg(1)->Arg(8)->Arg(64)->Arg(1024)->Arg(16384);

/// The linear merge at the same skews — the baseline galloping replaces.
void BM_IntersectLinear(benchmark::State& state) {
  size_t large_n = 1 << 20;
  size_t ratio = static_cast<size_t>(state.range(0));
  size_t small_n = large_n / ratio;
  Oid universe = static_cast<Oid>(large_n) * 4;
  std::vector<Oid> small = RandomOidList(small_n, universe, 17);
  std::vector<Oid> large = RandomOidList(large_n, universe, 23);
  for (auto _ : state) {
    std::vector<Oid> out = IntersectSortedLinear(small, large);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(small_n + large_n));
}
BENCHMARK(BM_IntersectLinear)->Arg(1)->Arg(8)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SortedColumnQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto column = BuildPermutationColumn(n, 7, "perm");
  SortedColumn<int64_t> sorted(column);
  Pcg32 rng(11);
  int64_t width = static_cast<int64_t>(n / 20);
  for (auto _ : state) {
    int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - width);
    benchmark::DoNotOptimize(
        sorted.Select(lo, true, lo + width - 1, true).count());
  }
}
BENCHMARK(BM_SortedColumnQuery)->Arg(1 << 18)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// --json mode: tier comparison matrix.
// ---------------------------------------------------------------------------

/// Median wall time in ns of one crack-in-two over `n` rows with the oid
/// map in lockstep (the shape every access path runs). The clone back to
/// the unsorted input is outside the timed region.
template <typename T>
double MedianCrack2Ns(SimdTier tier, double selectivity, size_t n, int reps) {
  Pcg32 rng(99);
  std::vector<T> original(n);
  for (auto& x : original)
    x = static_cast<T>(rng.NextInRange(0, static_cast<int64_t>(n)));
  const T pivot = static_cast<T>(selectivity * static_cast<double>(n));
  std::vector<T> data(n);
  std::vector<Oid> oids(n);
  std::vector<double> times;
  for (int r = 0; r <= reps; ++r) {  // rep 0 is warm-up
    std::copy(original.begin(), original.end(), data.begin());
    std::iota(oids.begin(), oids.end(), Oid{0});
    auto t0 = std::chrono::steady_clock::now();
    CrackSplit split = CrackInTwoLtTier(data.data(), oids.data(), n, pivot, tier);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(split.split);
    if (r > 0) {
      times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct TierRow {
  const char* type;
  double selectivity;
  SimdTier tier;
  double ns;
};

struct AggCompare {
  double pushdown_ns = 0.0;     ///< median AggregateRange wall time
  double materialize_ns = 0.0;  ///< median SelectRange(kView)+loop wall time
  double ratio = 0.0;           ///< materialize / pushdown (higher = better)
};

/// SUM over a warmed cracked int32 column: the span-kernel pushdown path
/// against the materialize-then-loop oracle (collect the oid view, gather
/// each value from the base column, accumulate). CI's bench-smoke lane
/// gates `agg_pushdown_vs_materialize_int32` from this at >= 2x.
AggCompare MeasureAggPushdown(size_t n, int reps) {
  AggCompare out;
  AdaptiveStoreOptions opts;  // defaults: crack strategy, standard policy
  AdaptiveStore store(opts);
  auto rel_or = Relation::Create("B", Schema({{"k", ValueType::kInt32}}));
  if (!rel_or.ok()) return out;
  std::shared_ptr<Relation> rel = *rel_or;
  Pcg32 rng(1203);
  for (size_t i = 0; i < n; ++i) {
    (void)rel->AppendRow({Value(static_cast<int32_t>(
        rng.NextInRange(0, static_cast<int64_t>(n))))});
  }
  if (!store.AddTable(rel).ok()) return out;

  // Warm the cracker: a few scattered cuts plus the measured range, so both
  // paths read an already-cracked column (the steady state the read path
  // optimizes).
  const RangeBounds range = RangeBounds::Closed(
      static_cast<int64_t>(n) / 4, 3 * static_cast<int64_t>(n) / 4);
  for (int q = 0; q < 8; ++q) {
    int64_t lo = rng.NextInRange(0, static_cast<int64_t>(n) - n / 10);
    (void)store.SelectRange("B", "k",
                            RangeBounds::Closed(lo, lo + static_cast<int64_t>(n) / 10));
  }
  if (!store.SelectRange("B", "k", range).ok()) return out;

  const int32_t* base =
      reinterpret_cast<const int32_t*>(rel->column(0)->raw_data());
  std::vector<double> push_times, mat_times;
  int64_t push_sum = 0, mat_sum = 0;
  for (int r = 0; r <= reps; ++r) {  // rep 0 is warm-up
    auto t0 = std::chrono::steady_clock::now();
    auto agg = store.AggregateRange("B", "k", range);
    auto t1 = std::chrono::steady_clock::now();
    if (!agg.ok()) return out;
    push_sum = agg->sum;
    auto t2 = std::chrono::steady_clock::now();
    auto qr = store.SelectRange("B", "k", range, Delivery::kView);
    if (!qr.ok()) return out;
    std::vector<Oid> oids = std::move(*qr).CollectOids();
    int64_t sum = 0;
    for (Oid oid : oids) sum += base[oid];
    auto t3 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sum);
    mat_sum = sum;
    if (r > 0) {
      push_times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      mat_times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
              .count()));
    }
  }
  if (push_sum != mat_sum) {
    std::fprintf(stderr, "agg pushdown mismatch: %lld vs %lld\n",
                 static_cast<long long>(push_sum),
                 static_cast<long long>(mat_sum));
    return out;
  }
  std::sort(push_times.begin(), push_times.end());
  std::sort(mat_times.begin(), mat_times.end());
  out.pushdown_ns = push_times[push_times.size() / 2];
  out.materialize_ns = mat_times[mat_times.size() / 2];
  if (out.pushdown_ns > 0.0) out.ratio = out.materialize_ns / out.pushdown_ns;
  return out;
}

struct ConjCompare {
  double candidates_ns = 0.0;  ///< median SelectConjunction(kCount) time
  double intersect_ns = 0.0;   ///< median collect-sort-intersect time
  double ratio = 0.0;          ///< intersect / candidates (higher = better)
};

/// A warm two-leg COUNT at `n` int64 rows — a 1e-3 leg on c0 and a 50% leg
/// on c1 — through the store's candidate-list conjunction, against the
/// collect-sort-intersect evaluation it replaced, rebuilt here over the
/// same store's legs: each leg's oid list (CollectOids copies and
/// std::sorts it), smallest list first, IntersectSorted. CI's bench-smoke
/// lane gates `conjunction_candidates_vs_intersect` from this at >= 10x.
ConjCompare MeasureConjunction(size_t n, int reps) {
  ConjCompare out;
  TapestryOptions topts;
  topts.num_rows = n;
  topts.seed = 1203;
  auto rel = BuildTapestry("C", topts);
  AdaptiveStore store;  // defaults: crack strategy, standard policy
  if (!rel.ok() || !store.AddTable(*rel).ok()) return out;
  const int64_t rows = static_cast<int64_t>(n);
  const std::vector<AdaptiveStore::ColumnRange> legs{
      {"c0", RangeBounds::Closed(rows / 3, rows / 3 + rows / 1000 - 1)},
      {"c1", RangeBounds::Closed(rows / 4, rows / 4 + rows / 2 - 1)}};

  std::vector<double> cand_times, inter_times;
  for (int r = 0; r <= reps; ++r) {  // rep 0 cracks both legs (warm-up)
    auto t0 = std::chrono::steady_clock::now();
    auto got = store.SelectConjunction("C", legs, Delivery::kCount);
    auto t1 = std::chrono::steady_clock::now();
    if (!got.ok()) return out;
    std::vector<std::vector<Oid>> lists;
    for (const AdaptiveStore::ColumnRange& leg : legs) {
      auto qr = store.SelectRange("C", leg.column, leg.range, Delivery::kView);
      if (!qr.ok()) return out;
      lists.push_back(std::move(*qr).CollectOids());
    }
    std::sort(lists.begin(), lists.end(),
              [](const std::vector<Oid>& a, const std::vector<Oid>& b) {
                return a.size() < b.size();
              });
    std::vector<Oid> survivors = std::move(lists.front());
    for (size_t i = 1; i < lists.size(); ++i) {
      survivors = IntersectSorted(survivors, lists[i]);
    }
    auto t2 = std::chrono::steady_clock::now();
    if (survivors.size() != got->count) {
      std::fprintf(stderr, "conjunction mismatch: %zu vs %llu\n",
                   survivors.size(),
                   static_cast<unsigned long long>(got->count));
      return out;
    }
    if (r > 0) {
      cand_times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      inter_times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
              .count()));
    }
  }
  std::sort(cand_times.begin(), cand_times.end());
  std::sort(inter_times.begin(), inter_times.end());
  out.candidates_ns = cand_times[cand_times.size() / 2];
  out.intersect_ns = inter_times[inter_times.size() / 2];
  if (out.candidates_ns > 0.0) out.ratio = out.intersect_ns / out.candidates_ns;
  return out;
}

int RunTierComparison(const std::string& path) {
  const size_t kRows = 1 << 20;
  const int kReps = 7;
  const double kSelectivities[] = {0.1, 0.5, 0.9};
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kPredicated, SimdTier::kAvx2,
                     SimdTier::kNeon}) {
    if (SimdTierSupported(t)) tiers.push_back(t);
  }

  std::vector<TierRow> rows;
  for (double sel : kSelectivities) {
    for (SimdTier t : tiers)
      rows.push_back({"int32", sel, t, MedianCrack2Ns<int32_t>(t, sel, kRows, kReps)});
    for (SimdTier t : tiers)
      rows.push_back({"int64", sel, t, MedianCrack2Ns<int64_t>(t, sel, kRows, kReps)});
    for (SimdTier t : tiers)
      rows.push_back({"double", sel, t, MedianCrack2Ns<double>(t, sel, kRows, kReps)});
  }

  // Headline ratio for CI: the dispatched tier vs scalar on int32 keys,
  // geometric-mean across selectivities.
  const SimdTier active = ActiveSimdTier();
  double log_sum = 0.0;
  int pairs = 0;
  for (double sel : kSelectivities) {
    double scalar_ns = 0.0, active_ns = 0.0;
    for (const TierRow& r : rows) {
      if (std::strcmp(r.type, "int32") != 0 || r.selectivity != sel) continue;
      if (r.tier == SimdTier::kScalar) scalar_ns = r.ns;
      if (r.tier == active) active_ns = r.ns;
    }
    if (scalar_ns > 0.0 && active_ns > 0.0) {
      log_sum += std::log(scalar_ns / active_ns);
      ++pairs;
    }
  }
  const double dispatched_vs_scalar =
      pairs > 0 ? std::exp(log_sum / pairs) : 1.0;

  const AggCompare agg = MeasureAggPushdown(kRows, kReps);
  const ConjCompare conj = MeasureConjunction(1000000, kReps);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"kernel\": \"crack_in_two_lt\",\n";
  out << "  \"rows\": " << kRows << ",\n";
  out << "  \"reps\": " << kReps << ",\n";
  out << "  \"active_tier\": \"" << SimdTierName(active) << "\",\n";
  out << "  \"dispatched_vs_scalar_int32\": " << dispatched_vs_scalar << ",\n";
  out << "  \"agg_pushdown_median_ns\": " << agg.pushdown_ns << ",\n";
  out << "  \"agg_materialize_median_ns\": " << agg.materialize_ns << ",\n";
  out << "  \"agg_pushdown_vs_materialize_int32\": " << agg.ratio << ",\n";
  out << "  \"conjunction_candidates_median_ns\": " << conj.candidates_ns
      << ",\n";
  out << "  \"conjunction_intersect_median_ns\": " << conj.intersect_ns
      << ",\n";
  out << "  \"conjunction_candidates_vs_intersect\": " << conj.ratio << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const TierRow& r = rows[i];
    out << "    {\"type\": \"" << r.type << "\", \"selectivity\": "
        << r.selectivity << ", \"tier\": \"" << SimdTierName(r.tier)
        << "\", \"median_ns\": " << r.ns << ", \"ns_per_row\": "
        << r.ns / static_cast<double>(kRows) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  out.close();

  std::printf("active tier: %s\n", SimdTierName(active));
  std::printf("dispatched vs scalar (int32, geomean): %.2fx\n",
              dispatched_vs_scalar);
  std::printf("agg pushdown vs materialize (int32 SUM, warmed crack): %.2fx\n",
              agg.ratio);
  std::printf("conjunction candidates vs intersect (2-leg COUNT, 1M int64): "
              "%.2fx\n",
              conj.ratio);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      return crackstore::RunTierComparison(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
