// Copyright 2026 The CrackStore Authors
//
// Long-run cost shape: does the per-query cost of cracking converge, or does
// hidden bookkeeping make it grow with the number of cracks already made?
// Halim et al. (stochastic cracking) judge cracking over 10^4-10^5 query
// sequences; short runs cannot tell a converging cost from a slowly growing
// one. This bench runs one long stream of random fixed-width COUNT selects
// through the store facade and reports the median latency of each tenth
// (decile) of the stream, for the configurations that take different
// per-query paths:
//   serial_standard      — the default store: serial cracks + Ξ lineage
//   concurrent_standard  — the latch-protocol path (lineage off)
//   serial_progressive   — budgeted cracks with carried frontiers
//   serial_auto          — the workload detector picking the policy
//
// Cracking converges, so the last decile must not cost more than the second
// (the first holds the cold cracks). CI gates last <= 1.5x second decile on
// every configuration from the --json output.
//
// Output: CSV rows (config, decile, median_ns) to stdout; --json=FILE writes
// the machine-readable document (BENCH_growth.json in CI).

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

struct GrowthConfig {
  const char* name;
  bool concurrent;
  CrackPolicy policy;
};

struct GrowthResult {
  std::string config;
  std::vector<double> decile_median_ns;
  double total_seconds = 0.0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const uint64_t n = std::max<uint64_t>(flags.GetUint("n", 1000000), 2);
  const size_t queries =
      std::max<size_t>(flags.GetUint("queries", 50000), 10);
  const uint64_t width =
      std::clamp<uint64_t>(flags.GetUint("width", 2000), 1, n - 1);
  const uint64_t seed = flags.GetUint("seed", 20050104);
  const std::string json_path = flags.GetString("json", "");

  bench::Banner(
      "long_run_growth", "per-query cost shape over long query sequences",
      StrFormat("n=%llu queries=%zu width=%llu seed=%llu (--n=, --queries=, "
                "--width=, --seed=, --json=)",
                static_cast<unsigned long long>(n), queries,
                static_cast<unsigned long long>(width),
                static_cast<unsigned long long>(seed)));

  // One query stream for every configuration: random [lo, lo + width)
  // windows over a permutation of 1..n, so every answer is exactly width.
  std::vector<RangeBounds> stream;
  stream.reserve(queries);
  Pcg32 rng(seed);
  for (size_t q = 0; q < queries; ++q) {
    const int64_t lo =
        rng.NextInRange(1, static_cast<int64_t>(n - width + 1));
    stream.push_back(
        RangeBounds::HalfOpen(lo, lo + static_cast<int64_t>(width)));
  }

  const GrowthConfig configs[] = {
      {"serial_standard", false, CrackPolicy::kStandard},
      {"concurrent_standard", true, CrackPolicy::kStandard},
      {"serial_progressive", false, CrackPolicy::kProgressive},
      {"serial_auto", false, CrackPolicy::kAuto},
  };

  std::vector<GrowthResult> results;
  TablePrinter csv;
  csv.SetHeader({"config", "decile", "median_ns"});
  for (const GrowthConfig& config : configs) {
    AdaptiveStoreOptions base;
    base.concurrent = config.concurrent;
    base.policy.policy = config.policy;
    auto store = bench::OpenStore(flags, base);
    CRACK_CHECK(store.ok());
    TapestryOptions topts;
    topts.num_rows = n;
    topts.num_columns = 1;
    topts.seed = seed;
    CRACK_CHECK((*store)->AddTable(*BuildTapestry("R", topts)).ok());

    std::vector<double> ns(queries);
    GrowthResult r;
    r.config = config.name;
    for (size_t q = 0; q < queries; ++q) {
      const auto start = std::chrono::steady_clock::now();
      auto qr = (*store)->SelectRange("R", "c0", stream[q], Delivery::kCount);
      const auto stop = std::chrono::steady_clock::now();
      CRACK_CHECK(qr.ok() && qr->count == width);
      ns[q] = std::chrono::duration<double, std::nano>(stop - start).count();
      r.total_seconds += ns[q] * 1e-9;
    }
    for (size_t d = 0; d < 10; ++d) {
      const auto first = ns.begin() + static_cast<ptrdiff_t>(d * queries / 10);
      const auto last =
          ns.begin() + static_cast<ptrdiff_t>((d + 1) * queries / 10);
      r.decile_median_ns.push_back(Median(std::vector<double>(first, last)));
      csv.AddRow({r.config, std::to_string(d + 1),
                  StrFormat("%.0f", r.decile_median_ns.back())});
    }
    std::fprintf(stderr, "# %s: %.3f s, last/second decile %.3f\n",
                 config.name, r.total_seconds,
                 r.decile_median_ns[9] / r.decile_median_ns[1]);
    results.push_back(std::move(r));
  }
  csv.PrintCsv(stdout);

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"n\": %llu,\n  \"queries\": %zu,\n  \"width\": %llu,"
                 "\n  \"seed\": %llu,\n  \"results\": [\n",
                 static_cast<unsigned long long>(n), queries,
                 static_cast<unsigned long long>(width),
                 static_cast<unsigned long long>(seed));
    for (size_t i = 0; i < results.size(); ++i) {
      const GrowthResult& r = results[i];
      std::string deciles;
      for (size_t d = 0; d < r.decile_median_ns.size(); ++d) {
        deciles += StrFormat("%s%.1f", d == 0 ? "" : ", ",
                             r.decile_median_ns[d]);
      }
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"total_seconds\": %.6f, "
                   "\"decile_median_ns\": [%s]}%s\n",
                   r.config.c_str(), r.total_seconds, deciles.c_str(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
