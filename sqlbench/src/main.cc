// Copyright 2026 The CrackStore Authors
//
// sqlbench: the SQL-level benchmark of CrackStore.
//
//   sqlbench --workload explore|conjunct|mixed_txn --seed N
//                   --seconds S --trace 0|1 --out-dir DIR
//
// A run generates its inputs from the seed, then repeats rounds until the
// timed streams add up to S seconds. A round opens a fresh store
// (AdaptiveStore::Open + AddTable, plus a Checkpoint on mixed_txn — the
// set-up time), sends one fixed-length statement stream through
// sql::SqlSession in a closed loop and checks every answer after the
// stream. Streams have a fixed length so that per-decile figures (cold
// cost, steady cost, growth) compare like with like across versions.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs pairs of rounds
// on the same stream, one traced and one not, and prints the per-layer
// metrics (span self times, registry counter deltas, tracing overhead).
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A per-run detail file (all metrics, deciles) and, for traced runs, the
// span dump go to DIR.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#ifdef __GLIBC__  // defined by the headers above
#include <malloc.h>
#endif

#include "core/task_pool.h"
#include "harness.h"
#include "rng.h"
#include "stats.h"

namespace sqlbench {
namespace {

// A run stops starting rounds once this much wall time is gone, so it ends
// well inside the three minutes a run may take.
constexpr double kRunBudgetSeconds = 120.0;
// Set-up is repeated at least this often per run; setup_s is the median.
constexpr size_t kMinSetupSamples = 15;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
      if (a->trace != 0 && a->trace != 1) return false;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Rounds of one kind (traced or not) folded together.
struct Totals {
  size_t rounds = 0;
  double stream_s = 0.0;
  uint64_t attempted = 0, errors = 0, aborted = 0, wrong = 0;
  std::string first_wrong;
  uint64_t rows_aggregated = 0, user_bytes = 0;
  DecileTable deciles;
  std::vector<double> read_s, txn_s, commit_s;
  // Per round: completed statements per second, the summed latency of the
  // first decile and the 95th percentile of read latency. Their medians
  // resist one round hit by a stall.
  std::vector<double> round_rate, round_cold_s, round_read_p95_s;
  std::vector<double> setup_s, add_table_s, setup_checkpoint_s, reopen_s;
  Counters delta;
  double versions_rows_end = 0.0, versions_chain_end = 0.0;
  LayerTimes layers;

  void Add(const RoundOutput& r) {
    ++rounds;
    stream_s += r.stream_s;
    attempted += r.attempted;
    errors += r.errors;
    aborted += r.aborted;
    if (wrong == 0 && r.wrong > 0) first_wrong = r.first_wrong;
    wrong += r.wrong;
    rows_aggregated += r.rows_aggregated;
    user_bytes += r.user_bytes;
    std::vector<double> lat, reads;
    lat.reserve(r.stmts.size());
    for (const StmtRecord& s : r.stmts) {
      lat.push_back(s.latency_s);
      if (s.kind == StmtKind::kRead) reads.push_back(s.latency_s);
      if (s.kind == StmtKind::kCommit) commit_s.push_back(s.latency_s);
    }
    read_s.insert(read_s.end(), reads.begin(), reads.end());
    round_read_p95_s.push_back(Percentile(reads, 95));
    deciles.AddRound(lat);
    round_rate.push_back(
        Ratio(static_cast<double>(r.attempted - r.errors), r.stream_s));
    const auto [cold_begin, cold_end] = DecileBounds(lat.size(), 0);
    round_cold_s.push_back(Sum(std::vector<double>(
        lat.begin() + static_cast<std::ptrdiff_t>(cold_begin),
        lat.begin() + static_cast<std::ptrdiff_t>(cold_end))));
    txn_s.insert(txn_s.end(), r.txn_s.begin(), r.txn_s.end());
    setup_s.push_back(r.setup_s);
    add_table_s.push_back(r.add_table_s);
    setup_checkpoint_s.push_back(r.setup_checkpoint_s);
    reopen_s.push_back(r.reopen_s);
    delta += r.delta;
    versions_rows_end += static_cast<double>(r.versions_rows_end);
    versions_chain_end += static_cast<double>(r.versions_chain_end);
    layers.Merge(r.layers);
  }

  uint64_t completed() const { return attempted - errors; }
  double per_round(double v) const {
    return rounds == 0 ? 0.0 : v / static_cast<double>(rounds);
  }
  double per_round(uint64_t v) const {
    return per_round(static_cast<double>(v));
  }
  uint64_t c(const char* name) const { return delta.Get(name); }
};


struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// End-to-end metrics: what a user of the store sees. Every workload reports
// every one of them, and none is ever 0.
// `rss_base_mb` is the resident set once the benchmark's own inputs exist,
// so rss_peak_mb is the peak the store adds on top of them.
std::vector<Metric> EndToEnd(const Totals& t, const std::vector<double>& setup,
                             double rss_base_mb) {
  const double d1 = t.deciles.MedianOf(1);
  const double d9 = t.deciles.MedianOf(9);
  return {
      {"setup_s", Median(setup), "s"},
      {"stmts_per_s", Median(t.round_rate), "stmt/s"},
      {"cold_s", Median(t.round_cold_s), "s"},
      {"steady_p50_us", d9 * 1e6, "us"},
      {"growth_ratio", Ratio(d9, d1), "ratio"},
      {"read_p50_us", Percentile(t.read_s, 50) * 1e6, "us"},
      // The 95th percentile, not the 99th: a conjunct round has 200 reads,
      // so only the 95th has ten reads beyond it, and on mixed_txn the 99th
      // spread by 31% over ten seeds on a shared machine, the 95th by 11%.
      {"read_p95_us", Median(t.round_read_p95_s) * 1e6, "us"},
      {"rss_peak_mb", PeakRssMb() - rss_base_mb, "MB"},
  };
}

// User-visible figures that exist only on some workloads (transactions,
// writes, failures); they ride in the detail file and in the traced run.
std::vector<Metric> Extras(const Totals& t) {
  const double wal_bytes = static_cast<double>(t.c("wal.bytes_appended") +
                                               t.c("wal.checkpoint_bytes"));
  return {
      {"txn_p50_us", Percentile(t.txn_s, 50) * 1e6, "us"},
      {"txn_p99_us", Percentile(t.txn_s, 99) * 1e6, "us"},
      {"failed_frac", Ratio(t.errors + t.aborted, t.attempted), "ratio"},
      {"write_amp", Ratio(wal_bytes, static_cast<double>(t.user_bytes)),
       "ratio"},
  };
}

// Per-layer metrics of a traced run. Counter deltas cover the traced
// streams only; counts that scale with the stream are per statement or per
// round (a round is one fixed-length stream).
std::vector<Metric> PerLayer(const Totals& t, double overhead) {
  const LayerTimes& L = t.layers;
  const double stmts = static_cast<double>(std::max<uint64_t>(t.attempted, 1));
  const double reads =
      static_cast<double>(std::max<size_t>(t.read_s.size(), 1));
  const uint64_t simd_all = t.c("simd.calls.scalar") +
                            t.c("simd.calls.predicated") +
                            t.c("simd.calls.avx2") + t.c("simd.calls.neon");
  const uint64_t span_rows = t.c("select.span_rows");
  const uint64_t mat = t.c("select.materialized_oids");
  std::vector<Metric> m = {
      {"sql.parse_p50_us", Percentile(L.parse_s, 50) * 1e6, "us"},
      {"obs.unattributed_frac", Ratio(L.seconds[kUnattributed], L.wall),
       "ratio"},
      {"obs.trace_overhead_frac", overhead, "ratio"},
      {"crack.self_us_p50", Percentile(L.crack_self_s, 50) * 1e6, "us"},
      {"crack.cracks_per_stmt", t.c("crack.cracks") / stmts, "count/stmt"},
      {"crack.kernel_writes_per_stmt", t.c("crack.kernel_writes") / stmts,
       "count/stmt"},
      {"crack.pieces_touched_per_stmt", t.c("crack.pieces_touched") / stmts,
       "count/stmt"},
      {"crack.pieces_created", t.per_round(t.c("crack.pieces_created")),
       "count/round"},
      {"simd.vector_frac",
       Ratio(t.c("simd.calls.avx2") + t.c("simd.calls.neon") +
                 t.c("simd.calls.predicated"),
             simd_all),
       "ratio"},
      {"select.span_row_frac", Ratio(span_rows, span_rows + mat), "ratio"},
      {"select.materialized_oids_per_stmt", mat / stmts, "count/stmt"},
      {"agg.pushdown_frac",
       Ratio(static_cast<double>(t.c("agg.pushdown_rows")),
             static_cast<double>(t.rows_aggregated)),
       "ratio"},
      {"txn.commit_p50_us", Percentile(t.commit_s, 50) * 1e6, "us"},
      {"txn.commit_p99_us", Percentile(t.commit_s, 99) * 1e6, "us"},
      {"txn.abort_frac", Ratio(t.c("txn.aborts"), t.c("txn.begins")), "ratio"},
      {"snapshot.rows_filtered_per_read",
       t.c("snapshot.rows_filtered") / reads, "count/read"},
      {"snapshot.override_hits_per_read",
       t.c("snapshot.override_hits") / reads, "count/read"},
      {"versions.rows_end", t.per_round(t.versions_rows_end), "count"},
      {"versions.chain_entries_end", t.per_round(t.versions_chain_end),
       "count"},
      {"latch.range_acquisitions_per_stmt",
       t.c("latch.range_acquisitions") / stmts, "count/stmt"},
      {"wal.bytes_per_commit",
       Ratio(t.c("wal.bytes_appended"), t.c("wal.appends")), "B/commit"},
      {"wal.commits_per_fsync", Ratio(t.c("wal.appends"), t.c("wal.fsyncs")),
       "commit/fsync"},
      {"wal.checkpoints", t.per_round(t.c("wal.checkpoints")), "count/round"},
      {"wal.checkpoint_bytes", t.per_round(t.c("wal.checkpoint_bytes")),
       "B/round"},
      {"storage.add_table_s", Median(t.add_table_s), "s"},
      {"durability.setup_checkpoint_s", Median(t.setup_checkpoint_s), "s"},
      {"durability.reopen_s", Median(t.reopen_s), "s"},
  };
  // Mean self time per statement of each layer; with obs.unattributed_us
  // they add up to stmt.wall_us.
  const double traced_stmts =
      static_cast<double>(std::max<size_t>(L.statements, 1));
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name =
        l == kUnattributed
            ? std::string("obs.unattributed_us")
            : std::string("self.") + LayerStem(static_cast<Layer>(l)) + "_us";
    m.push_back({name, L.seconds[l] / traced_stmts * 1e6, "us/stmt"});
  }
  m.push_back({"stmt.wall_us", L.wall / traced_stmts * 1e6, "us/stmt"});
  for (const Metric& x : Extras(t)) m.push_back(x);
  return m;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string DecilesJson(const Totals& t) {
  std::string s = "[";
  for (size_t d = 0; d < 10; ++d) {
    if (d > 0) s += ", ";
    s += "{\"median_us\": " + Num(t.deciles.MedianOf(d) * 1e6) +
         ", \"sum_s\": " + Num(t.deciles.SumPerRound(d)) + "}";
  }
  return s + "]";
}

void PrintTable(const char* title, const std::vector<Metric>& ms) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : ms) {
    std::fprintf(stderr, "  %-36s %14s %s\n", m.name.c_str(),
                 Num(m.value).c_str(), m.unit);
  }
}

int Run(const Args& args) {
#ifdef __GLIBC__
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // rises after the first large free and lets later rounds reuse warm heap
  // pages: set-up and first-touch costs would then depend on the round.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  crackstore::TaskPool::SetGlobalThreads(0);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sqlbench: cannot create %s\n", args.out_dir.c_str());
    return 1;
  }
  std::unique_ptr<Workload> wl;
  if (args.workload == "explore") {
    wl = MakeExplore();
  } else if (args.workload == "conjunct") {
    wl = MakeConjunct();
  } else if (args.workload == "mixed_txn") {
    wl = MakeMixedTxn(args.out_dir + "/data");
  } else {
    std::fprintf(stderr, "sqlbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const int64_t run_start = NowNs();
  wl->Generate(args.seed);
  const double rss_base_mb = RssMb();
  std::fprintf(stderr, "sqlbench: %s seed=%llu generated in %.2f s\n",
               wl->name(), static_cast<unsigned long long>(args.seed),
               SecondsSince(run_start));

  Totals plain, traced;
  SpanLog spans;
  std::vector<double> setup;
  double measured = 0.0;
  for (uint64_t pair = 0;; ++pair) {
    const int64_t pair_start = NowNs();
    const uint64_t round_seed = StreamSeed(args.seed, 2, pair);
    // Traced runs alternate which of the pair goes first.
    std::vector<bool> order = {false};
    if (args.trace == 1) {
      order = pair % 2 == 0 ? std::vector<bool>{false, true}
                            : std::vector<bool>{true, false};
    }
    for (bool tr : order) {
      SpanLog round_spans;
      Result<RoundOutput> r =
          wl->RunRound(round_seed, tr ? &round_spans : nullptr);
      if (!r.ok()) {
        std::fprintf(stderr, "sqlbench: round failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      (tr ? traced : plain).Add(*r);
      setup.push_back(r->setup_s);
      measured += r->stream_s;
      if (tr) spans.Append(round_spans);
      std::fprintf(stderr,
                   "sqlbench: round %zu%s: setup %.3f s, %zu stmts in %.3f s\n",
                   static_cast<size_t>(pair), tr ? " (traced)" : "",
                   r->setup_s, r->stmts.size(), r->stream_s);
    }
    const double pair_s = SecondsSince(pair_start);
    if (measured >= args.seconds) break;
    if (SecondsSince(run_start) + 1.5 * pair_s > kRunBudgetSeconds) break;
  }
  while (setup.size() < kMinSetupSamples) {
    Result<double> s = wl->SetupOnly();
    if (!s.ok()) {
      std::fprintf(stderr, "sqlbench: set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    setup.push_back(*s);
  }

  const Totals& main_totals = args.trace == 1 ? traced : plain;
  const bool correct = plain.wrong + traced.wrong == 0;
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed =
      plain.errors + plain.aborted + traced.errors + traced.aborted;

  std::vector<Metric> printed;
  std::vector<Metric> detail;
  if (args.trace == 0) {
    printed = EndToEnd(plain, setup, rss_base_mb);
    detail = Extras(plain);
  } else {
    const double tr_rate = Ratio(static_cast<double>(traced.completed()),
                                 traced.stream_s);
    const double plain_rate =
        Ratio(static_cast<double>(plain.completed()), plain.stream_s);
    printed = PerLayer(traced, 1.0 - Ratio(tr_rate, plain_rate));
    detail = EndToEnd(plain, setup, rss_base_mb);
  }

  const std::string stem = args.out_dir + "/" + wl->name() + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  if (args.trace == 1) {
    Status st = WriteSpanDump(
        args.out_dir + "/" + wl->name() + ".spans.jsonl", spans);
    if (!st.ok()) {
      std::fprintf(stderr, "sqlbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"rounds\": %zu, \"metrics\": %s, \"detail\": %s, "
                 "\"deciles\": %s}\n",
                 wl->name(), static_cast<unsigned long long>(args.seed),
                 args.trace, main_totals.rounds, MetricsJson(printed).c_str(),
                 MetricsJson(detail).c_str(),
                 DecilesJson(main_totals).c_str());
    std::fclose(f);
  }

  std::fprintf(stderr, "sqlbench: %s, %zu round(s), %.2f s measured\n",
               wl->name(), main_totals.rounds, main_totals.stream_s);
  std::fprintf(stderr, "deciles (median us / sum s per round):");
  for (size_t d = 0; d < 10; ++d) {
    std::fprintf(stderr, " %.1f/%.3f", main_totals.deciles.MedianOf(d) * 1e6,
                 main_totals.deciles.SumPerRound(d));
  }
  std::fprintf(stderr, "\n");
  PrintTable(args.trace == 1 ? "per-layer:" : "end-to-end:", printed);
  PrintTable("also:", detail);
  if (!correct) {
    std::fprintf(stderr, "sqlbench: WRONG ANSWERS (%llu), first: %s\n",
                 static_cast<unsigned long long>(plain.wrong + traced.wrong),
                 (plain.wrong > 0 ? plain.first_wrong : traced.first_wrong)
                     .c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace sqlbench

int main(int argc, char** argv) {
  sqlbench::Args args;
  if (!sqlbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqlbench --workload explore|conjunct|mixed_txn "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  return sqlbench::Run(args);
}
