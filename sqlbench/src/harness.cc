// Copyright 2026 The CrackStore Authors

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqlbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

const char* KindName(StmtKind kind) {
  switch (kind) {
    case StmtKind::kRead:
      return "ExecuteSql read";
    case StmtKind::kWrite:
      return "ExecuteSql write";
    case StmtKind::kBegin:
      return "ExecuteSql begin";
    case StmtKind::kCommit:
      return "ExecuteSql commit";
    case StmtKind::kRollback:
      return "ExecuteSql rollback";
  }
  return "ExecuteSql";
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

int64_t NowNs() { return ToNs(Clock::now()); }

const char* LayerStem(Layer layer) {
  switch (layer) {
    case kParse:
      return "sql_parse";
    case kPlan:
      return "sql_plan";
    case kExec:
      return "sql_exec";
    case kSelect:
      return "core_select";
    case kAggregate:
      return "core_aggregate";
    case kConjunction:
      return "core_conjunction";
    case kMaterialize:
      return "core_materialize";
    case kDml:
      return "core_dml";
    case kOtherSpan:
      return "other_span";
    case kUnattributed:
    case kNumLayers:
      break;
  }
  return "unattributed";
}

Layer LayerOfSpan(const std::string& name) {
  // "<op>[(shared)] <detail>": the op names the layer.
  std::string op = name.substr(0, name.find(' '));
  const size_t paren = op.find('(');
  if (paren != std::string::npos) op.resize(paren);
  if (op == "parse") return kParse;
  if (op == "plan") return kPlan;
  if (op == "select-stmt") return kExec;
  if (op == "select") return kSelect;
  if (op == "aggregate") return kAggregate;
  if (op == "conjunction") return kConjunction;
  if (op == "materialize") return kMaterialize;
  if (op == "insert" || op == "update" || op == "delete" ||
      op == "delete-oids") {
    return kDml;
  }
  return kOtherSpan;
}

int64_t SpanLog::Open(std::string name, int64_t parent, int64_t stmt) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.stmt = stmt;
  rec.start_ns = NowNs();
  return Add(std::move(rec));
}

void SpanLog::Close(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t SpanLog::Add(SpanRecord rec) {
  rec.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void SpanLog::Append(const SpanLog& other) {
  const int64_t offset = next_id();
  for (SpanRecord rec : other.spans_) {
    rec.id += offset;
    if (rec.parent >= 0) rec.parent += offset;
    if (rec.stmt >= 0) rec.stmt += offset;
    spans_.push_back(std::move(rec));
  }
}

Status WriteSpanDump(const std::string& path, const SpanLog& log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string line;
  for (const SpanRecord& s : log.spans()) {
    line = "{\"id\":" + std::to_string(s.id);
    line += ",\"parent\":" + std::to_string(s.parent);
    line += ",\"stmt\":" + std::to_string(s.stmt);
    line += ",\"name\":";
    AppendJsonString(s.name, &line);
    line += ",\"start_ns\":" + std::to_string(s.start_ns);
    line += ",\"end_ns\":" + std::to_string(s.end_ns) + "}\n";
    std::fwrite(line.data(), 1, line.size(), f);
  }
  if (std::fclose(f) != 0) return Status::IoError("cannot close " + path);
  return Status::OK();
}

void LayerTimes::Merge(const LayerTimes& o) {
  for (int i = 0; i < kNumLayers; ++i) seconds[i] += o.seconds[i];
  wall += o.wall;
  statements += o.statements;
  parse_s.insert(parse_s.end(), o.parse_s.begin(), o.parse_s.end());
  crack_self_s.insert(crack_self_s.end(), o.crack_self_s.begin(),
                      o.crack_self_s.end());
}

Result<crackstore::sql::QueryOutput> Session::Run(const std::string& sql,
                                                  StmtKind kind) {
  if (log_ == nullptr) {
    const Clock::time_point t0 = Clock::now();
    Result<crackstore::sql::QueryOutput> out = session_.ExecuteSql(sql);
    const Clock::time_point t1 = Clock::now();
    records_.push_back(
        {ToNs(t1), std::chrono::duration<double>(t1 - t0).count(), kind});
    return out;
  }

  crackstore::obs::QueryTrace trace;
  crackstore::obs::ExecContext ctx;
  ctx.trace = &trace;
  const Clock::time_point t0 = Clock::now();
  Result<crackstore::sql::QueryOutput> out = session_.ExecuteSql(sql, ctx);
  const Clock::time_point t1 = Clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  records_.push_back({ToNs(t1), wall, kind});

  SpanRecord stmt;
  stmt.name = KindName(kind);
  stmt.stmt = log_->next_id();
  stmt.start_ns = ToNs(t0);
  stmt.end_ns = ToNs(t1);
  const int64_t stmt_id = log_->Add(std::move(stmt));

  // The program's spans arrive in open order with their nesting depth; a
  // span's parent is the nearest earlier span one level up. "parse" is
  // recorded after the fact without a start: ExecuteSql parses first, so
  // it is anchored at the statement's start.
  const std::vector<crackstore::obs::QueryTrace::Span> spans = trace.Spans();
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<int64_t> parent_idx(spans.size(), -1);
  std::vector<int64_t> open_at_depth;
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t depth = static_cast<size_t>(std::max(spans[i].depth, 0));
    open_at_depth.resize(depth + 1, -1);
    parent_idx[i] = depth == 0 ? -1 : open_at_depth[depth - 1];
    open_at_depth[depth] = static_cast<int64_t>(i);
    if (parent_idx[i] >= 0) {
      child_s[static_cast<size_t>(parent_idx[i])] += spans[i].seconds;
    }
  }
  std::vector<int64_t> ids(spans.size(), -1);
  double top_level_s = 0.0;
  double parse_s = 0.0;
  double crack_self = 0.0;
  bool has_crack = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& sp = spans[i];
    SpanRecord rec;
    rec.name = sp.name;
    rec.stmt = stmt_id;
    rec.parent = parent_idx[i] < 0 ? stmt_id
                                   : ids[static_cast<size_t>(parent_idx[i])];
    rec.start_ns = sp.start == Clock::time_point{} ? ToNs(t0) : ToNs(sp.start);
    rec.end_ns = rec.start_ns + std::llround(sp.seconds * 1e9);
    ids[i] = log_->Add(std::move(rec));

    const double self = sp.seconds - child_s[i];
    const Layer layer = LayerOfSpan(sp.name);
    layers_.seconds[layer] += self;
    if (parent_idx[i] < 0) top_level_s += sp.seconds;
    if (layer == kParse) parse_s += sp.seconds;
    if (layer == kSelect || layer == kAggregate) {
      crack_self += self;
      has_crack = true;
    }
  }
  // Self times telescope to the top-level spans' total, so the layers'
  // self times plus this add up to the statement's wall time exactly.
  layers_.seconds[kUnattributed] += wall - top_level_s;
  layers_.wall += wall;
  ++layers_.statements;
  layers_.parse_s.push_back(parse_s);
  if (has_crack) layers_.crack_self_s.push_back(crack_self);
  return out;
}

const char* const Counters::kNames[Counters::kNum] = {
    "crack.cracks",
    "crack.kernel_writes",
    "crack.pieces_created",
    "crack.pieces_touched",
    "simd.calls.scalar",
    "simd.calls.predicated",
    "simd.calls.avx2",
    "simd.calls.neon",
    "select.span_rows",
    "select.materialized_oids",
    "agg.pushdown_rows",
    "txn.begins",
    "txn.aborts",
    "snapshot.rows_filtered",
    "snapshot.override_hits",
    "latch.range_acquisitions",
    "wal.appends",
    "wal.bytes_appended",
    "wal.fsyncs",
    "wal.checkpoints",
    "wal.checkpoint_bytes",
};

Counters Counters::Read() {
  auto& reg = crackstore::obs::MetricsRegistry::Global();
  Counters c;
  for (int i = 0; i < kNum; ++i) c.v[i] = reg.GetCounter(kNames[i])->Value();
  c.versions_rows = reg.GetGauge("versions.rows")->Value();
  c.versions_chain_entries = reg.GetGauge("versions.chain_entries")->Value();
  return c;
}

uint64_t Counters::Get(const char* name) const {
  for (int i = 0; i < kNum; ++i) {
    if (std::strcmp(kNames[i], name) == 0) return v[i];
  }
  std::fprintf(stderr, "sqlbench: unknown counter %s\n", name);
  std::abort();
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  for (int i = 0; i < kNum; ++i) d.v[i] = v[i] - o.v[i];
  d.versions_rows = versions_rows - o.versions_rows;
  d.versions_chain_entries = versions_chain_entries - o.versions_chain_entries;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  for (int i = 0; i < kNum; ++i) v[i] += o.v[i];
  versions_rows += o.versions_rows;
  versions_chain_entries += o.versions_chain_entries;
  return *this;
}

Status LoadTable(AdaptiveStore* store, const std::string& name,
                 const std::vector<const std::vector<int64_t>*>& columns) {
  std::vector<crackstore::ColumnDef> defs;
  std::vector<std::shared_ptr<crackstore::Bat>> bats;
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string col = "c" + std::to_string(i);
    defs.push_back({col, crackstore::ValueType::kInt64});
    bats.push_back(crackstore::Bat::FromVector(*columns[i], col));
  }
  Result<std::shared_ptr<crackstore::Relation>> rel =
      crackstore::Relation::FromColumns(name, crackstore::Schema(defs),
                                        std::move(bats));
  if (!rel.ok()) return rel.status();
  return store->AddTable(*rel);
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

Result<double> Workload::SetupOnly() {
  RoundOutput out;
  auto store = TimedSetup(nullptr, &out);
  if (!store.ok()) return store.status();
  Status st = CloseStore(std::move(*store), nullptr);
  if (!st.ok()) return st;
  return out.setup_s;
}

Result<std::unique_ptr<AdaptiveStore>> Workload::TimedSetup(SpanLog* log,
                                                            RoundOutput* out) {
  const int64_t t0 = NowNs();
  auto store = Setup(log, out);
  out->setup_s = SecondsSince(t0);
  return store;
}

Result<std::unique_ptr<AdaptiveStore>> OpenAndLoad(
    const crackstore::DbOptions& options,
    const std::vector<const std::vector<int64_t>*>& columns, SpanLog* log,
    RoundOutput* out) {
  std::unique_ptr<AdaptiveStore> store;
  {
    ScopedSpan span(log, "Open");
    auto opened = AdaptiveStore::Open(options);
    if (!opened.ok()) return opened.status();
    store = std::move(*opened);
  }
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(log, "AddTable");
    Status st = LoadTable(store.get(), "R", columns);
    if (!st.ok()) return st;
  }
  out->add_table_s = SecondsSince(t0);
  return store;
}

Status CloseStore(std::unique_ptr<AdaptiveStore> store, SpanLog* log) {
  ScopedSpan span(log, "Close");
  return store->Close();
}

void RoundOutput::Wrong(const std::string& what) {
  if (wrong++ == 0) first_wrong = what;
}

}  // namespace sqlbench
