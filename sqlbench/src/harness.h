// Copyright 2026 The CrackStore Authors
//
// The measuring side of the SQL benchmark: one client Session sends SQL
// text through crackstore::sql::SqlSession and times each statement; in a
// traced round it also binds a fresh obs::QueryTrace per statement through
// the public ExecContext seam and files the program's spans (parse -> plan
// -> per-column crack/select -> materialize) under the benchmark's own
// statement span. Spans stay in memory until the run ends.
//
// Layer self time: a span's duration minus the part its child spans cover.
// A statement's wall time is therefore exactly the sum of the self times of
// its program spans plus the time no program span covers ("unattributed").

#ifndef SQLBENCH_HARNESS_H_
#define SQLBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_store.h"
#include "sql/executor.h"

namespace sqlbench {

using crackstore::AdaptiveStore;
using crackstore::Result;
using crackstore::Status;

/// Nanoseconds since the process-wide benchmark epoch (steady clock).
int64_t NowNs();

/// What a statement is, for the metrics that split by kind.
enum class StmtKind : uint8_t { kRead, kWrite, kBegin, kCommit, kRollback };

/// The layers a program span's self time is charged to.
enum Layer : int {
  kParse,        ///< src/sql parser ("parse")
  kPlan,         ///< src/sql executor dispatch ("plan")
  kExec,         ///< src/sql executor glue ("select-stmt" self time)
  kSelect,       ///< core access path select/crack ("select")
  kAggregate,    ///< core aggregate pushdown ("aggregate")
  kConjunction,  ///< core conjunction intersection ("conjunction")
  kMaterialize,  ///< core/sql row materialization ("materialize")
  kDml,          ///< core insert/update/delete
  kOtherSpan,    ///< any other program span
  kUnattributed, ///< statement time no program span covers
  kNumLayers
};

/// Metric-name stem of each layer ("self.<stem>_us").
const char* LayerStem(Layer layer);
/// Layer a program span is charged to, from its name ("select R.c0").
Layer LayerOfSpan(const std::string& name);

/// One span of the dump: the benchmark's own (round set-up, statement) or
/// one of the program's QueryTrace spans nested under a statement.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;  ///< -1: a root
  int64_t stmt = -1;    ///< id of the statement span, -1 outside one
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Span buffer of one thread; ids are indices into it.
class SpanLog {
 public:
  int64_t Open(std::string name, int64_t parent, int64_t stmt = -1);
  void Close(int64_t id);
  int64_t Add(SpanRecord rec);
  int64_t next_id() const { return static_cast<int64_t>(spans_.size()); }
  /// Moves `other`'s spans in, renumbering their ids.
  void Append(const SpanLog& other);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

/// Times a benchmark span around a public call when `log` is set.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1)
      : log_(log), id_(log ? log->Open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Writes the spans as JSON lines.
Status WriteSpanDump(const std::string& path, const SpanLog& log);

/// Per-statement timing record.
struct StmtRecord {
  int64_t end_ns = 0;
  double latency_s = 0.0;
  StmtKind kind = StmtKind::kRead;
};

/// Self-time totals of a traced stream.
struct LayerTimes {
  double seconds[kNumLayers] = {};
  double wall = 0.0;
  size_t statements = 0;
  std::vector<double> parse_s;       ///< parse span, one per statement
  std::vector<double> crack_self_s;  ///< select/aggregate self, per statement

  void Merge(const LayerTimes& o);
};

/// One client's connection: a SqlSession plus the records of the statements
/// it sent. `log` set = traced.
class Session {
 public:
  Session(AdaptiveStore* store, SpanLog* log)
      : session_(store), log_(log) {}

  /// Sends one statement and waits for its answer (closed loop).
  Result<crackstore::sql::QueryOutput> Run(const std::string& sql,
                                           StmtKind kind);

  const std::vector<StmtRecord>& records() const { return records_; }
  const LayerTimes& layers() const { return layers_; }
  /// Completion time (NowNs) of the statement Run() last sent.
  int64_t last_end_ns() const { return records_.back().end_ns; }
  void Reserve(size_t n) { records_.reserve(n); }

 private:
  crackstore::sql::SqlSession session_;
  SpanLog* log_;
  std::vector<StmtRecord> records_;
  LayerTimes layers_;
};

/// Registry instruments the benchmark diffs across a timed stream.
struct Counters {
  static constexpr int kNum = 21;
  static const char* const kNames[kNum];
  uint64_t v[kNum] = {};
  int64_t versions_rows = 0;           ///< gauge
  int64_t versions_chain_entries = 0;  ///< gauge

  static Counters Read();
  uint64_t Get(const char* name) const;
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// Builds BATs c0, c1, ... from the generated columns (a copy, as a loader
/// would make) and registers them as table `name`.
Status LoadTable(AdaptiveStore* store, const std::string& name,
                 const std::vector<const std::vector<int64_t>*>& columns);

/// Seconds elapsed since `start_ns` (a NowNs() reading).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Peak resident set of this process, MB.
double PeakRssMb();
/// Resident set of this process now, MB.
double RssMb();

/// Everything one round (set-up + one fixed-length statement stream +
/// untimed answer checks) reports.
struct RoundOutput {
  double setup_s = 0.0;             ///< Open + table load (+ checkpoint)
  double add_table_s = 0.0;         ///< table load part of setup_s
  double setup_checkpoint_s = 0.0;  ///< checkpoint part of setup_s
  double reopen_s = 0.0;            ///< Close + Open after the stream
  double stream_s = 0.0;            ///< wall time of the timed stream
  std::vector<StmtRecord> stmts;    ///< completion order
  std::vector<double> txn_s;        ///< BEGIN sent -> COMMIT acknowledged
  uint64_t attempted = 0;           ///< statements sent
  uint64_t errors = 0;              ///< statements that returned an error
  uint64_t aborted = 0;             ///< transactions that did not commit
  uint64_t wrong = 0;               ///< answers that failed a check
  std::string first_wrong;          ///< description of the first one
  uint64_t rows_aggregated = 0;     ///< rows under SUM/MIN/MAX statements
  uint64_t user_bytes = 0;          ///< user values written by acked DML
  Counters delta;                   ///< registry deltas over the stream
  int64_t versions_rows_end = 0;    ///< version-log gauges at stream end,
  int64_t versions_chain_end = 0;   ///< relative to the round's start
  LayerTimes layers;                ///< traced rounds only

  void Wrong(const std::string& what);
};

/// A workload generates its data once per run and then runs rounds.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Builds the run's inputs from the seed (not timed).
  virtual void Generate(uint64_t seed) = 0;
  /// Set-up, stream, checks. `log` set = traced round.
  virtual Result<RoundOutput> RunRound(uint64_t round_seed, SpanLog* log) = 0;
  /// Set-up alone, then Close: an extra set-up sample (seconds).
  virtual Result<double> SetupOnly();

 protected:
  /// Opens a store and loads its table; records the parts of set-up it
  /// times (add_table_s, setup_checkpoint_s) into `out`.
  virtual Result<std::unique_ptr<AdaptiveStore>> Setup(SpanLog* log,
                                                       RoundOutput* out) = 0;
  /// Setup() with its wall time stored in out->setup_s.
  Result<std::unique_ptr<AdaptiveStore>> TimedSetup(SpanLog* log,
                                                    RoundOutput* out);
};

/// Opens a store with `options` and loads table R from `columns`, each
/// call in its own benchmark span.
Result<std::unique_ptr<AdaptiveStore>> OpenAndLoad(
    const crackstore::DbOptions& options,
    const std::vector<const std::vector<int64_t>*>& columns, SpanLog* log,
    RoundOutput* out);

/// Closes `store` inside a "Close" span.
Status CloseStore(std::unique_ptr<AdaptiveStore> store, SpanLog* log);

std::unique_ptr<Workload> MakeExplore();
std::unique_ptr<Workload> MakeConjunct();
/// `data_dir`: where the workload's database lives during a round.
std::unique_ptr<Workload> MakeMixedTxn(const std::string& data_dir);

}  // namespace sqlbench

#endif  // SQLBENCH_HARNESS_H_
