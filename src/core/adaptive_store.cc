// Copyright 2026 The CrackStore Authors

#include "core/adaptive_store.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/oid_set_ops.h"
#include "core/task_pool.h"
#include "durability/checkpoint.h"
#include "obs/instruments.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crackstore {

namespace {

/// Copies a leg answer's oids into `out` in answer order (unsorted): from
/// its view or span set, or by moving its list. False when a count-only
/// answer carries none.
bool TakeLegOids(QueryResult* leg, std::vector<Oid>* out) {
  if (leg->has_selection) {
    const Oid* oids = leg->selection.oids.data<Oid>();
    out->assign(oids, oids + leg->selection.count());
  } else if (leg->has_span_set) {
    out->reserve(leg->count);
    leg->span_set.ForEachOid([out](Oid oid) { out->push_back(oid); });
  } else if (leg->scan_oids.size() == leg->count) {
    *out = std::move(leg->scan_oids);  // its producer counted it
    return true;
  } else {
    return false;
  }
  obs::RecordMaterializedOids(out->size());
  return true;
}

/// Shapes a conjunction's survivors for `delivery`: kView hands them out
/// ascending (DML and row fetches rely on oid order), kCount drops them.
void ShapeConjunctionAnswer(Delivery delivery, QueryResult* result) {
  if (delivery != Delivery::kView) {
    result->scan_oids = std::vector<Oid>();
  } else if (result->has_span_set) {
    obs::RecordMaterializedOids(result->count);
    result->scan_oids = result->span_set.ToOids();
  } else {
    std::sort(result->scan_oids.begin(), result->scan_oids.end());
  }
}

/// Validates every SET clause of an UPDATE up front so a bad column name, a
/// mistyped value or an overflowing literal cannot leave the statement
/// half-applied. Shared by the serial and concurrent write paths.
Status ValidateAssignments(const Relation& rel,
                           const std::vector<AdaptiveStore::Assignment>& sets) {
  for (const AdaptiveStore::Assignment& set : sets) {
    auto bat_result = rel.column(set.column);
    if (!bat_result.ok()) return bat_result.status();
    ValueType type = (*bat_result)->tail_type();
    bool integral_value = set.value.is_int32() || set.value.is_int64();
    switch (type) {
      case ValueType::kInt32: {
        // Doubles are rejected on integer columns (silent fraction
        // truncation; an out-of-range double->int64 cast is UB).
        if (!integral_value) break;
        int64_t wide = set.value.ToInt64();
        if (wide < std::numeric_limits<int32_t>::min() ||
            wide > std::numeric_limits<int32_t>::max()) {
          return Status::InvalidArgument(
              StrFormat("value %lld overflows int32 column %s",
                        static_cast<long long>(wide), set.column.c_str()));
        }
        continue;
      }
      case ValueType::kInt64:
        if (!integral_value) break;
        continue;
      case ValueType::kFloat64:
        if (!integral_value && !set.value.is_double()) break;
        continue;
      case ValueType::kString:
        if (!set.value.is_string()) break;
        continue;
      default:
        break;
    }
    return Status::TypeMismatch(
        StrFormat("cannot SET %s:%s to %s", set.column.c_str(),
                  ValueTypeName(type), set.value.ToString().c_str()));
  }
  return Status::OK();
}

/// First oid of `rel`'s dense head (0 for empty schemas).
Oid BaseOid(const Relation& rel) {
  return rel.num_columns() > 0 ? rel.column(size_t{0})->head_base() : 0;
}

}  // namespace

std::vector<Oid> QueryResult::CollectOids() const& {
  if (!has_selection) {
    if (scan_oids.empty() && has_span_set && count > 0) {
      // Span-only answer (e.g. a kCount-delivered leg that kept its span
      // set): this is the true materialization boundary.
      obs::RecordMaterializedOids(count);
      return span_set.ToOids();
    }
    return scan_oids;
  }
  std::vector<Oid> oids;
  oids.reserve(selection.count());
  for (size_t i = 0; i < selection.count(); ++i) {
    oids.push_back(selection.oids.Get<Oid>(i));
  }
  std::sort(oids.begin(), oids.end());
  obs::RecordMaterializedOids(oids.size());
  return oids;
}

std::vector<Oid> QueryResult::CollectOids() && {
  if (!has_selection && !scan_oids.empty()) return std::move(scan_oids);
  return static_cast<const QueryResult&>(*this).CollectOids();
}

AdaptiveStore::AdaptiveStore(AdaptiveStoreOptions options)
    : options_(options) {
  // Lineage folds each statement's piece splits into the DAG after it
  // returns, which assumes no neighbor cracks the column meanwhile;
  // concurrent mode trades the DAG away (README "Concurrency model").
  if (options_.concurrent) options_.track_lineage = false;
  // Mirror into the unified config so Configure/db_options() agree with the
  // running store even for legacy bare-constructed (in-memory) instances.
  db_options_.strategy = options_.strategy;
  db_options_.policy = options_.policy;
  db_options_.merge_budget = options_.merge_budget;
  db_options_.delta_merge = options_.delta_merge;
  db_options_.track_lineage = options_.track_lineage;
  db_options_.concurrent = options_.concurrent;
  db_options_.autovacuum_version_threshold = 0;  // legacy: explicit VACUUM
}

AdaptiveStore::~AdaptiveStore() {
  Status s = Close();
  (void)s;
}

Status AdaptiveStore::AddTable(std::shared_ptr<Relation> relation) {
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  if (relation == nullptr) return Status::InvalidArgument("null relation");
  std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
  if (options_.concurrent) rl.lock();
  if (tables_.count(relation->name()) > 0) {
    return Status::AlreadyExists("table exists: " + relation->name());
  }
  std::string name = relation->name();
  Oid base = BaseOid(*relation);
  size_t rows = relation->num_rows();
  const Relation* rel = relation.get();
  tables_.emplace(name, std::move(relation));
  versions_.emplace(name, std::make_unique<VersionedTable>(base, rows));
  if (rl.owns_lock()) rl.unlock();
  if (wal_ != nullptr && !replaying_) {
    // A table created after the last checkpoint must survive a crash: log
    // its full image (schema + rows) through the checkpoint codec.
    durability::TableSnapshot snap;
    snap.rel = rel;
    snap.head_base = base;
    std::string image;
    durability::EncodeTableImage(snap, &image);
    CRACK_ASSIGN_OR_RETURN(uint64_t lsn, wal_->AppendTableImage(image));
    CRACK_RETURN_NOT_OK(wal_->CommitDurable(lsn));
  }
  return Status::OK();
}

Result<std::shared_ptr<Relation>> AdaptiveStore::table(
    const std::string& name) const {
  std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
  if (options_.concurrent) rl.lock();
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second;
}

std::vector<std::string> AdaptiveStore::TableNames() const {
  std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
  if (options_.concurrent) rl.lock();
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, rel] : tables_) out.push_back(name);
  return out;
}

Result<std::shared_ptr<Bat>> AdaptiveStore::ResolveColumn(
    const std::string& table, const std::string& column) const {
  auto rel = this->table(table);
  if (!rel.ok()) return rel.status();
  return (*rel)->column(column);
}

AccessPathConfig AdaptiveStore::PathConfigFor(const std::string& key) const {
  AccessPathConfig config = options_.path_config();
  auto it = recovered_policies_.find(key);
  if (it != recovered_policies_.end()) {
    // Resume what the previous run's workload taught this column rather
    // than re-learning from the store-wide default.
    config.policy.policy = it->second.first;
    config.policy.progressive_budget = it->second.second;
  }
  return config;
}

// --- MVCC machinery ---------------------------------------------------------

VersionedTable* AdaptiveStore::VersionsFor(const std::string& table) const {
  std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
  if (options_.concurrent) rl.lock();
  auto it = versions_.find(table);
  if (it == versions_.end()) {
    Oid base = 0;
    size_t rows = 0;
    auto t = tables_.find(table);
    if (t != tables_.end()) {
      base = BaseOid(*t->second);
      rows = t->second->num_rows();
    }
    it = versions_
             .emplace(table, std::make_unique<VersionedTable>(base, rows))
             .first;
  }
  return it->second.get();
}

VersionedTable* AdaptiveStore::VersionsIfAny(const std::string& table) const {
  std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
  if (options_.concurrent) rl.lock();
  auto it = versions_.find(table);
  return it == versions_.end() ? nullptr : it->second.get();
}

Result<Snapshot> AdaptiveStore::ReadSnapshot(TxnId txn) const {
  if (txn == kNoTxn) {
    // Under commit_mu_: a snapshot must never observe a commit timestamp
    // whose version stamps have not landed yet (see commit_mu_).
    std::lock_guard<std::mutex> cl(commit_mu_);
    return txn_mgr_.LatestSnapshot();
  }
  return txn_mgr_.SnapshotOf(txn);
}

SnapshotView AdaptiveStore::ViewForColumn(const std::string& table,
                                          const std::string& column,
                                          const Snapshot& snap) const {
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) return SnapshotView();
  // Concurrent stores always get an active view: rows appended while the
  // statement runs must fall beyond the view's horizon even when no
  // version state existed at build time.
  return vt->ViewFor(snap, column, /*force_active=*/options_.concurrent);
}

Result<SnapshotView> AdaptiveStore::ReadView(const std::string& table,
                                             const std::string& column,
                                             TxnId txn) const {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  return ViewForColumn(table, column, snap);
}

Result<TxnId> AdaptiveStore::Begin() {
  TxnId txn;
  Snapshot snap;
  {
    std::lock_guard<std::mutex> cl(commit_mu_);  // see commit_mu_
    txn = txn_mgr_.Begin();
    CRACK_ASSIGN_OR_RETURN(snap, txn_mgr_.SnapshotOf(txn));
  }
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  TxnState state;
  state.snap = snap;
  txn_states_.emplace(txn, std::move(state));
  return txn;
}

bool AdaptiveStore::TxnActive(TxnId txn) const {
  return txn != kNoTxn && txn_mgr_.IsActive(txn);
}

Result<AdaptiveStore::WriteScope> AdaptiveStore::BeginWriteScope(TxnId txn) {
  WriteScope scope;
  if (txn == kNoTxn) {
    // Auto-commit: the statement is its own transaction — its writes
    // become visible atomically when FinishWriteScope commits, and a
    // failed statement leaves no visibility trace.
    {
      std::lock_guard<std::mutex> cl(commit_mu_);  // see commit_mu_
      scope.txn = txn_mgr_.Begin();
      CRACK_ASSIGN_OR_RETURN(scope.snap, txn_mgr_.SnapshotOf(scope.txn));
    }
    scope.implicit = true;
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    TxnState state;
    state.snap = scope.snap;
    state.implicit = true;
    txn_states_.emplace(scope.txn, std::move(state));
    return scope;
  }
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(txn);
  if (it == txn_states_.end()) {
    return Status::NotFound(
        StrFormat("no active transaction %llu",
                  static_cast<unsigned long long>(txn)));
  }
  if (it->second.abort_only) {
    return Status::Aborted(
        "transaction hit a write-write conflict; roll it back");
  }
  scope.txn = txn;
  scope.snap = it->second.snap;
  scope.implicit = false;
  return scope;
}

Status AdaptiveStore::FinishWriteScope(const WriteScope& scope,
                                       Status op_status) {
  if (scope.implicit) {
    if (op_status.ok()) return Commit(scope.txn);
    Status rb = Rollback(scope.txn);
    CRACK_DCHECK(rb.ok());
    (void)rb;
    return op_status;
  }
  if (op_status.IsAborted()) {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(scope.txn);
    if (it != txn_states_.end()) it->second.abort_only = true;
  }
  return op_status;
}

void AdaptiveStore::Touch(const WriteScope& scope, const std::string& table,
                          Oid oid) {
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(scope.txn);
  if (it != txn_states_.end()) it->second.touched[table].push_back(oid);
}

void AdaptiveStore::PushUndo(const WriteScope& scope, UndoRecord record) {
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(scope.txn);
  if (it != txn_states_.end()) it->second.undo.push_back(std::move(record));
}

void AdaptiveStore::PushRedo(const WriteScope& scope, durability::WalOp op) {
  if (wal_ == nullptr) return;
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(scope.txn);
  if (it != txn_states_.end()) it->second.redo.push_back(std::move(op));
}

Status AdaptiveStore::Commit(TxnId txn) {
  if (txn == kNoTxn) {
    return Status::InvalidArgument("auto-commit has no transaction to commit");
  }
  bool abort_only = false;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(txn);
    if (it == txn_states_.end()) {
      return Status::NotFound(
          StrFormat("no active transaction %llu",
                    static_cast<unsigned long long>(txn)));
    }
    abort_only = it->second.abort_only;
  }
  if (abort_only) {
    CRACK_RETURN_NOT_OK(Rollback(txn));
    return Status::Aborted(
        "transaction hit a write-write conflict and was rolled back");
  }
  TxnState state;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(txn);
    state = std::move(it->second);
    txn_states_.erase(it);
  }
  // Formal first-committer-wins validation. Write admission already locks
  // rows eagerly, so this cannot fire today — it is the commit-time guard
  // the protocol is defined by.
  for (const auto& [table, oids] : state.touched) {
    Status st = VersionsFor(table)->ValidateWriteSet(state.snap, txn, oids);
    if (!st.ok()) {
      {
        std::lock_guard<std::mutex> tl(txn_states_mu_);
        txn_states_.emplace(txn, std::move(state));
      }
      CRACK_RETURN_NOT_OK(Rollback(txn));
      return st;
    }
  }
  uint64_t wal_lsn = 0;
  {
    // Atomic with respect to snapshot acquisition: no reader may pin a
    // read_ts covering `cts` before every marker is stamped.
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRACK_ASSIGN_OR_RETURN(Ts cts, txn_mgr_.FinishCommit(txn));
    for (const auto& [table, oids] : state.touched) {
      VersionsFor(table)->CommitTxn(txn, cts, oids);
    }
    // Append the redo record while still inside commit_mu_, so the log
    // holds commit records in commit-stamp order (replay depends on it).
    // The fsync happens after release — appends are cheap, stalls are not.
    if (wal_ != nullptr && !state.redo.empty()) {
      durability::WalCommit record;
      record.commit_ts = cts;
      record.ops = std::move(state.redo);
      CRACK_ASSIGN_OR_RETURN(wal_lsn, wal_->AppendCommit(record));
    }
  }
  if (wal_lsn != 0) CRACK_RETURN_NOT_OK(wal_->CommitDurable(wal_lsn));
  MaybeRunMaintenance();
  return Status::OK();
}

Status AdaptiveStore::Rollback(TxnId txn) {
  if (txn == kNoTxn) {
    return Status::InvalidArgument(
        "auto-commit has no transaction to roll back");
  }
  TxnState state;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(txn);
    if (it == txn_states_.end()) {
      return Status::NotFound(
          StrFormat("no active transaction %llu",
                    static_cast<unsigned long long>(txn)));
    }
    state = std::move(it->second);
    txn_states_.erase(it);
  }
  // Physical value restores need the store quiesced in concurrent mode
  // (they bypass the per-column latch protocol).
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  return RollbackLocked(txn, &state);
}

Status AdaptiveStore::RollbackLocked(TxnId txn, TxnState* state) {
  Status result = Status::OK();
  // Undo physical update writes in reverse order, so multiple writes to
  // one slot unwind to the oldest value.
  for (auto it = state->undo.rbegin(); it != state->undo.rend(); ++it) {
    auto rel = this->table(it->table);
    if (!rel.ok()) {
      result = rel.status();
      continue;
    }
    auto bat = (*rel)->column(it->column);
    if (!bat.ok()) {
      result = bat.status();
      continue;
    }
    Oid base = (*bat)->head_base();
    Status st =
        (*bat)->SetValue(static_cast<size_t>(it->oid - base), it->old_value);
    if (!st.ok()) result = st;
    ColumnAccessPath* path = nullptr;
    {
      std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
      if (options_.concurrent) rl.lock();
      auto ait = accels_.find(it->table + "." + it->column);
      if (ait != accels_.end() &&
          ait->second.has_path.load(std::memory_order_acquire)) {
        path = ait->second.path.get();
      }
    }
    if (path != nullptr) {
      st = path->Update(it->oid, it->old_value);
      if (!st.ok() && !st.IsNotFound()) result = st;
    }
  }
  for (const auto& [table, oids] : state->touched) {
    VersionsFor(table)->RollbackTxn(txn, oids);
  }
  Status fin = txn_mgr_.FinishRollback(txn);
  if (!fin.ok()) result = fin;
  return result;
}

Result<uint64_t> AdaptiveStore::StampDeletes(const std::string& table,
                                             const WriteScope& scope,
                                             const std::vector<Oid>& oids,
                                             IoStats* stats) {
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  VersionedTable* vt = VersionsFor(table);
  Oid base = BaseOid(**rel_result);
  Oid end = vt->horizon();
  uint64_t removed = 0;
  for (Oid oid : oids) {
    if (oid < base || oid >= end) {
      return Status::InvalidArgument(
          StrFormat("oid %llu outside %s's row range",
                    static_cast<unsigned long long>(oid), table.c_str()));
    }
    std::string why;
    VersionedTable::Admission adm =
        vt->AdmitWrite(oid, scope.snap, scope.txn, &why);
    if (adm == VersionedTable::Admission::kSkip) continue;  // already dead
    if (adm == VersionedTable::Admission::kConflict) {
      if (scope.implicit) continue;  // pre-MVCC race semantics: skip the row
      return Status::Aborted("DELETE " + why);
    }
    Touch(scope, table, oid);
    vt->StampDelete(oid, TxnStamp(scope.txn));
    if (wal_ != nullptr) {
      durability::WalOp op;
      op.kind = durability::WalOpKind::kDelete;
      op.table = table;
      op.oid = oid;
      PushRedo(scope, std::move(op));
    }
    ++removed;
    if (stats != nullptr) ++stats->tuples_written;
  }
  return removed;
}

// --- latch-protocol machinery (uncontended in a serial store) -------------

AdaptiveStore::ColumnAccel* AdaptiveStore::AccelSlot(
    const std::string& table, const std::string& column, TableState** ts) {
  std::lock_guard<std::mutex> rl(registry_mu_);
  if (ts != nullptr) *ts = &table_states_[table];
  return &accels_[table + "." + column];
}

AdaptiveStore::TableState* AdaptiveStore::TableStateFor(
    const std::string& table) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  return &table_states_[table];
}

Status AdaptiveStore::CreatePath(const std::string& table,
                                 const std::string& column, ColumnAccel* accel,
                                 const std::shared_ptr<Bat>& bat) {
  if (accel->has_path.load(std::memory_order_acquire)) return Status::OK();
  CRACK_ASSIGN_OR_RETURN(
      accel->path,
      CreateColumnAccessPath(bat, PathConfigFor(table + "." + column)));
  // A path born after a vacuum must not resurrect purged rows: the lazy
  // accelerator build reads the append-only base, which still holds them
  // physically. Replay them before publishing the path (versioned deletes
  // are filtered by the SnapshotView at read time and need no replay).
  VersionedTable* vt = VersionsIfAny(table);
  if (vt != nullptr) {
    for (Oid oid : vt->PurgedOids()) {
      Status st = accel->path->Delete(oid);
      CRACK_DCHECK(st.ok() || st.IsNotFound());
      (void)st;
    }
  }
  accel->has_path.store(true, std::memory_order_release);
  return Status::OK();
}

Status AdaptiveStore::MaintainColumn(ColumnAccel* accel, TableState* ts,
                                     IoStats* stats) {
  if (!accel->has_path.load(std::memory_order_acquire)) return Status::OK();
  if (!accel->path->WantsMaintenance()) return Status::OK();
  std::unique_lock<std::shared_mutex> col(accel->latch);
  std::shared_lock<std::shared_mutex> base(ts->base_latch);
  return accel->path->FlushDeltas(stats);
}

Status AdaptiveStore::FinishSelectConcurrent(const std::string& table,
                                             const std::string& column,
                                             AccessSelection sel,
                                             Delivery delivery,
                                             QueryResult* result) {
  result->count = sel.count;
  if (sel.contiguous) {
    // Never let a zero-copy view escape the latch scope: the data behind it
    // may be shuffled by a neighbor's crack the moment the latch drops.
    if (delivery != Delivery::kCount) {
      result->scan_oids.reserve(sel.view.oids.size());
      for (size_t i = 0; i < sel.view.oids.size(); ++i) {
        result->scan_oids.push_back(sel.view.oids.Get<Oid>(i));
      }
      std::sort(result->scan_oids.begin(), result->scan_oids.end());
      obs::RecordMaterializedOids(result->scan_oids.size());
    }
  } else {
    result->scan_oids = std::move(sel.oids);
    obs::RecordMaterializedOids(result->scan_oids.size());
  }
  // Span sets never escape here either: they pin the permuted oid map by
  // shared_ptr, but its contents reshuffle once the latch drops.
  if (delivery == Delivery::kMaterialize) {
    auto rel = this->table(table);
    if (!rel.ok()) return rel.status();
    auto out = Relation::Create(table + "_" + column + "_result",
                                (*rel)->schema());
    if (!out.ok()) return out.status();
    for (Oid oid : result->scan_oids) {
      CRACK_RETURN_NOT_OK(
          (*out)->AppendRow((*rel)->GetRow(static_cast<size_t>(oid))));
      result->io.tuples_read += (*rel)->num_columns();
      result->io.tuples_written += (*rel)->num_columns();
    }
    result->materialized = *out;
  }
  return Status::OK();
}

Result<QueryResult> AdaptiveStore::SelectRangeConcurrent(
    const std::string& table, const std::string& column,
    const TypedRange& range, Delivery delivery, const Snapshot& snap) {
  auto bat_result = ResolveColumn(table, column);
  if (!bat_result.ok()) return bat_result.status();
  std::shared_ptr<Bat> bat = *bat_result;

  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span("select(shared)", table + "." + column,
                            &result.io);
  TableState* ts;
  ColumnAccel* accel = AccelSlot(table, column, &ts);

  // The MVCC read filter, captured before any latch: its horizon hides
  // rows appended after this point, so the filter needs no base latch.
  SnapshotView view = ViewForColumn(table, column, snap);
  const SnapshotView* view_ptr = view.active() ? &view : nullptr;

  // Fold deltas the shared path must not (ripple / threshold / immediate
  // folds all run here, under the exclusive latch).
  CRACK_RETURN_NOT_OK(MaintainColumn(accel, ts, &result.io));

  bool want_oids = delivery != Delivery::kCount;
  bool shared_mode =
      accel->has_path.load(std::memory_order_acquire) &&
      accel->path->concurrency() == PathConcurrency::kSharedReads &&
      accel->path->SharedSelectReady();
  if (shared_mode) {
    std::shared_lock<std::shared_mutex> col(accel->latch);
    std::shared_lock<std::shared_mutex> base(ts->base_latch);
    CRACK_ASSIGN_OR_RETURN(
        AccessSelection sel,
        accel->path->SelectTyped(range, want_oids, &result.io, view_ptr));
    CRACK_RETURN_NOT_OK(FinishSelectConcurrent(table, column, std::move(sel),
                                               delivery, &result));
  } else {
    std::unique_lock<std::shared_mutex> col(accel->latch);
    std::shared_lock<std::shared_mutex> base(ts->base_latch);
    CRACK_RETURN_NOT_OK(CreatePath(table, column, accel, bat));
    CRACK_ASSIGN_OR_RETURN(
        AccessSelection sel,
        accel->path->SelectTyped(range, want_oids, &result.io, view_ptr));
    CRACK_RETURN_NOT_OK(FinishSelectConcurrent(table, column, std::move(sel),
                                               delivery, &result));
  }

  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

Result<ColumnAggregates> AdaptiveStore::AggregateRangeConcurrent(
    const std::string& table, const std::string& column,
    const RangeBounds& bounds, const Snapshot& snap) {
  auto bat_result = ResolveColumn(table, column);
  if (!bat_result.ok()) return bat_result.status();
  std::shared_ptr<Bat> bat = *bat_result;

  IoStats io;
  obs::TraceSpan trace_span("aggregate(shared)", table + "." + column, &io);
  TableState* ts;
  ColumnAccel* accel = AccelSlot(table, column, &ts);

  SnapshotView view = ViewForColumn(table, column, snap);
  const SnapshotView* view_ptr = view.active() ? &view : nullptr;

  CRACK_RETURN_NOT_OK(MaintainColumn(accel, ts, &io));

  bool shared_mode =
      accel->has_path.load(std::memory_order_acquire) &&
      accel->path->concurrency() == PathConcurrency::kSharedReads &&
      accel->path->SharedSelectReady();
  Result<ColumnAggregates> out = ColumnAggregates{};
  if (shared_mode) {
    std::shared_lock<std::shared_mutex> col(accel->latch);
    std::shared_lock<std::shared_mutex> base(ts->base_latch);
    out = accel->path->AggregateRange(bounds, &io, view_ptr);
  } else {
    std::unique_lock<std::shared_mutex> col(accel->latch);
    std::shared_lock<std::shared_mutex> base(ts->base_latch);
    CRACK_RETURN_NOT_OK(CreatePath(table, column, accel, bat));
    out = accel->path->AggregateRange(bounds, &io, view_ptr);
  }
  if (!out.ok()) return out.status();
  out->io = io;
  obs::RecordAggPushdown(out->pushdown_rows);
  AddIo(io);
  return out;
}

Status AdaptiveStore::ConjunctionCandidates(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    TxnId txn, const Snapshot& snap, QueryResult* result) {
  // The one mode fork: a serial leg may answer with a zero-copy view or
  // span set, a concurrent one only with latch-independent counts/lists.
  auto select_leg = [&](size_t i, Delivery delivery) {
    const ColumnRange& c = conjuncts[i];
    return options_.concurrent
               ? SelectRangeConcurrent(table, c.column, c.range, delivery, snap)
               : SelectRange(table, c.column, c.range, delivery, txn);
  };

  // Every leg cracks its own column (each conjunct is advice for its
  // column's accelerator) and reports its exact count. Concurrent legs
  // latch only their own column, so they fan out across the task pool.
  const size_t n = conjuncts.size();
  std::vector<QueryResult> legs(n);
  std::vector<Status> statuses(n);
  auto run_leg = [&](size_t i) {
    Result<QueryResult> qr = select_leg(i, Delivery::kCount);
    statuses[i] = qr.status();
    if (qr.ok()) legs[i] = std::move(*qr);
  };
  if (options_.concurrent) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) tasks.emplace_back([&run_leg, i] { run_leg(i); });
    TaskPool::Global()->RunBatch(std::move(tasks));
  } else {
    for (size_t i = 0; i < n && statuses[i].ok(); ++i) run_leg(i);
  }
  size_t tight = 0;
  bool all_identity = true;
  for (size_t i = 0; i < n; ++i) {
    CRACK_RETURN_NOT_OK(statuses[i]);
    result->io += legs[i].io;
    if (legs[i].count < legs[tight].count) tight = i;
    const OidSpanSet& spans = legs[i].span_set;
    all_identity &= legs[i].has_span_set && SpanSetIntersectable(spans) &&
                    spans.exceptions() == 0 && spans.extras() == 0;
  }
  if (legs[tight].count == 0) return Status::OK();

  if (all_identity) {
    // Scan legs over clean identity layouts intersect as interval algebra:
    // only span boundaries are touched and the answer stays a span set.
    OidSpanSet folded = std::move(legs[0].span_set);
    result->io.tuples_read += folded.num_spans();
    for (size_t i = 1; i < n; ++i) {
      result->io.tuples_read += legs[i].span_set.num_spans();
      folded = IntersectIdentitySpanSets(folded, legs[i].span_set);
    }
    result->count = folded.count();
    result->has_span_set = true;
    result->span_set = std::move(folded);
    obs::RecordSpanAnswer(result->span_set.num_spans(), result->count);
    return Status::OK();
  }

  // The tightest leg's oids are the candidates, read in answer order from
  // the answer in hand — unless a later leg re-cracked the same column
  // (which may have moved its view) or the answer was count-only; then the
  // leg is asked again, now that every crack has landed.
  std::vector<Oid> candidates;
  bool moved = false;
  for (size_t i = tight + 1; i < n; ++i) {
    moved |= conjuncts[i].column == conjuncts[tight].column;
  }
  if (moved || !TakeLegOids(&legs[tight], &candidates)) {
    CRACK_ASSIGN_OR_RETURN(QueryResult again, select_leg(tight, Delivery::kView));
    result->io += again.io;
    TakeLegOids(&again, &candidates);
  }

  // The other legs filter the candidates on base values at the snapshot,
  // tightest first, under the base latch: an append may reallocate a
  // column and an in-place update rewrites its slot. The wide legs'
  // answers are never written down.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&legs](size_t a, size_t b) {
    return legs[a].count < legs[b].count;
  });
  std::shared_lock<std::shared_mutex> base(TableStateFor(table)->base_latch);
  for (size_t i : order) {
    if (i == tight || candidates.empty()) continue;
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> bat,
                           ResolveColumn(table, conjuncts[i].column));
    SnapshotView view = ViewForColumn(table, conjuncts[i].column, snap);
    CRACK_RETURN_NOT_OK(FilterCandidates(*bat, conjuncts[i].range,
                                         view.overrides(), &candidates,
                                         &result->io));
  }
  result->count = candidates.size();
  result->scan_oids = std::move(candidates);
  return Status::OK();
}

void AdaptiveStore::AddIo(const IoStats& io) {
  if (options_.concurrent) {
    std::lock_guard<std::mutex> il(io_mu_);
    total_io_ += io;
  } else {
    total_io_ += io;
  }
  obs::MirrorIo(io);
}

Result<QueryResult> AdaptiveStore::SelectRange(const std::string& table,
                                               const std::string& column,
                                               const TypedRange& range,
                                               Delivery delivery, TxnId txn) {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  if (options_.concurrent) {
    std::shared_lock<std::shared_mutex> g(global_mu_);
    return SelectRangeConcurrent(table, column, range, delivery, snap);
  }
  auto bat_result = ResolveColumn(table, column);
  if (!bat_result.ok()) return bat_result.status();
  std::shared_ptr<Bat> bat = *bat_result;

  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span("select", table + "." + column, &result.io);

  ColumnAccel* accel = AccelSlot(table, column);
  CRACK_RETURN_NOT_OK(CreatePath(table, column, accel, bat));
  bool is_crack = accel->path->strategy() == AccessStrategy::kCrack;
  if (is_crack && options_.track_lineage && accel->root == kInvalidPieceId) {
    accel->root = lineage_.AddRoot(table + "." + column, bat->size());
  }

  SnapshotView view = ViewForColumn(table, column, snap);
  CRACK_ASSIGN_OR_RETURN(
      AccessSelection sel,
      accel->path->SelectTyped(
          range, /*want_oids=*/delivery != Delivery::kCount, &result.io,
          view.active() ? &view : nullptr));
  result.count = sel.count;
  if (sel.contiguous) {
    result.selection = sel.view;
    result.has_selection = true;
  } else {
    result.scan_oids = std::move(sel.oids);
    obs::RecordMaterializedOids(result.scan_oids.size());
  }
  if (sel.has_span_set) {
    // Zero-materialization shape rides along: consumers that can work on
    // spans (conjunction candidate lists, lazy CollectOids) never gather.
    result.has_span_set = true;
    result.span_set = std::move(sel.span_set);
    obs::RecordSpanAnswer(result.span_set.num_spans(), result.span_set.count());
  }

  if (is_crack && options_.track_lineage) UpdateLineage(table, column, accel);

  if (delivery == Delivery::kMaterialize) {
    obs::TraceSpan mat_span("materialize", &result.io);
    if (result.has_selection) {
      CRACK_ASSIGN_OR_RETURN(
          result.materialized,
          MaterializeSelection(table, result.selection,
                               table + "_" + column + "_result", &result.io));
    } else {
      // Non-contiguous answer: materialize from the gathered oid list.
      auto rel = this->table(table);
      auto out = Relation::Create(table + "_" + column + "_result",
                                  (*rel)->schema());
      if (!out.ok()) return out.status();
      for (Oid oid : result.scan_oids) {
        Status st = (*out)->AppendRow((*rel)->GetRow(static_cast<size_t>(oid)));
        if (!st.ok()) return st;
        result.io.tuples_read += (*rel)->num_columns();
        result.io.tuples_written += (*rel)->num_columns();
      }
      result.materialized = *out;
    }
  }

  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

Result<ColumnAggregates> AdaptiveStore::AggregateRange(
    const std::string& table, const std::string& column,
    const TypedRange& range, TxnId txn) {
  if (range.has_string()) {
    return Status::Unimplemented("aggregate pushdown: string predicate");
  }
  const RangeBounds bounds = range.ToNumericBounds();
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  if (options_.concurrent) {
    std::shared_lock<std::shared_mutex> g(global_mu_);
    return AggregateRangeConcurrent(table, column, bounds, snap);
  }
  auto bat_result = ResolveColumn(table, column);
  if (!bat_result.ok()) return bat_result.status();
  std::shared_ptr<Bat> bat = *bat_result;

  ColumnAccel* accel = AccelSlot(table, column);
  CRACK_RETURN_NOT_OK(CreatePath(table, column, accel, bat));
  bool is_crack = accel->path->strategy() == AccessStrategy::kCrack;
  if (is_crack && options_.track_lineage && accel->root == kInvalidPieceId) {
    accel->root = lineage_.AddRoot(table + "." + column, bat->size());
  }

  IoStats io;
  obs::TraceSpan trace_span("aggregate", table + "." + column, &io);
  SnapshotView view = ViewForColumn(table, column, snap);
  CRACK_ASSIGN_OR_RETURN(
      ColumnAggregates out,
      accel->path->AggregateRange(bounds, &io,
                                  view.active() ? &view : nullptr));

  // The aggregate's cuts crack the column exactly like a select's.
  if (is_crack && options_.track_lineage) UpdateLineage(table, column, accel);

  out.io = io;
  obs::RecordAggPushdown(out.pushdown_rows);
  AddIo(io);
  return out;
}

Result<QueryResult> AdaptiveStore::SelectConjunction(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    Delivery delivery, TxnId txn) {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  return SelectConjunctionAt(table, conjuncts, delivery, txn, snap);
}

Result<QueryResult> AdaptiveStore::SelectConjunctionAt(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    Delivery delivery, TxnId txn, const Snapshot& snap) {
  if (conjuncts.empty()) {
    return Status::InvalidArgument("conjunction needs at least one predicate");
  }
  if (delivery == Delivery::kMaterialize) {
    return Status::Unimplemented(
        "materialize a conjunction via kView + MaterializeSelection");
  }
  if (conjuncts.size() == 1) {
    const ColumnRange& c = conjuncts[0];
    return options_.concurrent
               ? SelectRangeConcurrent(table, c.column, c.range, delivery, snap)
               : SelectRange(table, c.column, c.range, delivery, txn);
  }

  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span(
      options_.concurrent ? "conjunction(shared)" : "conjunction", table,
      &result.io);

  // The stateless scan strategy has a cheaper shape for all-numeric
  // conjunctions: one fused pass over the referenced columns, no per-column
  // oid materialization. Stateful paths (crack/sort) go per-column anyway —
  // each conjunct is advice for its own column's accelerator — and
  // string-typed conjuncts route per-column too, where the dictionary
  // encoding lives.
  bool all_numeric = true;
  for (const ColumnRange& c : conjuncts) all_numeric &= !c.range.has_string();
  // The fused pass reads current base values with no visibility filter, so
  // it only runs while the table has no version state at all (no DML yet);
  // any stamp routes the conjunction per-column, where the SnapshotView
  // applies. It reads base columns without per-column coordination, so a
  // concurrent store always goes per-column.
  VersionedTable* fused_vt = VersionsIfAny(table);
  bool version_free = fused_vt == nullptr || fused_vt->empty();
  if (options_.strategy == AccessStrategy::kScan && all_numeric &&
      version_free && !options_.concurrent) {
    auto rel_result = this->table(table);
    if (!rel_result.ok()) return rel_result.status();
    std::shared_ptr<Relation> rel = *rel_result;
    struct TypedColumn {
      const int32_t* d32 = nullptr;
      const int64_t* d64 = nullptr;
      const double* f64 = nullptr;
      RangeBounds range;
    };
    std::vector<TypedColumn> cols;
    cols.reserve(conjuncts.size());
    bool fusable = true;
    for (const ColumnRange& c : conjuncts) {
      auto bat = rel->column(c.column);
      if (!bat.ok()) return bat.status();
      TypedColumn col;
      col.range = c.range.ToNumericBounds();
      switch ((*bat)->tail_type()) {
        case ValueType::kInt64:
          col.d64 = (*bat)->TailData<int64_t>();
          break;
        case ValueType::kInt32:
          col.d32 = (*bat)->TailData<int32_t>();
          break;
        case ValueType::kFloat64:
          col.f64 = (*bat)->TailData<double>();
          break;
        default:
          // A numeric bound on a string column: let the per-column path
          // report the TypeMismatch uniformly.
          fusable = false;
          break;
      }
      if (!fusable) break;
      cols.push_back(col);
    }
    if (fusable) {
      size_t n = rel->num_rows();
      Oid base = BaseOid(*rel);
      for (size_t i = 0; i < n; ++i) {
        bool all = true;
        for (size_t c = 0; c < cols.size() && all; ++c) {
          if (cols[c].f64 != nullptr) {
            // Doubles compare in their own domain (int64 bounds widen).
            const RangeBounds& r = cols[c].range;
            double v = cols[c].f64[i];
            double lo = static_cast<double>(r.lo);
            double hi = static_cast<double>(r.hi);
            all = !(r.lo_incl ? v < lo : v <= lo) &&
                  !(r.hi_incl ? v > hi : v >= hi);
          } else {
            int64_t v = cols[c].d32 != nullptr
                            ? static_cast<int64_t>(cols[c].d32[i])
                            : cols[c].d64[i];
            all = cols[c].range.Contains(v);
          }
        }
        if (all) {
          ++result.count;
          if (delivery == Delivery::kView) {
            result.scan_oids.push_back(base + i);
          }
        }
      }
      result.io.tuples_read += n * conjuncts.size();
      result.seconds = timer.ElapsedSeconds();
      AddIo(result.io);
      return result;
    }
  }

  CRACK_RETURN_NOT_OK(
      ConjunctionCandidates(table, conjuncts, txn, snap, &result));
  ShapeConjunctionAnswer(delivery, &result);
  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

Result<std::vector<Oid>> AdaptiveStore::WhereOids(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    const WriteScope& scope, IoStats* io) {
  if (conjuncts.empty()) return LiveOidsAt(table, scope.snap);
  // The WHERE is a read like any other: it cracks the referenced columns on
  // its way to the victim set. A concurrent read runs under the global
  // latch the caller already holds.
  Result<QueryResult> qr = SelectConjunctionAt(
      table, conjuncts, Delivery::kView, scope.txn, scope.snap);
  if (!qr.ok()) return qr.status();
  *io += qr->io;
  return std::move(*qr).CollectOids();
}

Result<QueryResult> AdaptiveStore::Insert(const std::string& table,
                                          std::vector<Value> values,
                                          TxnId txn) {
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
    if (options_.concurrent) g.lock();
    auto rel_result = this->table(table);
    if (!rel_result.ok()) return rel_result.status();
    std::shared_ptr<Relation> rel = *rel_result;

    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("insert", table, &result.io);
    CRACK_RETURN_NOT_OK(CoerceRow(rel->schema(), &values));

    size_t ncols = rel->num_columns();
    std::vector<ColumnAccel*> accels(ncols);
    TableState* ts;
    {
      std::lock_guard<std::mutex> rl(registry_mu_);
      for (size_t c = 0; c < ncols; ++c) {
        accels[c] = &accels_[table + "." + rel->schema().column(c).name];
      }
      ts = &table_states_[table];
    }
    VersionedTable* vt = VersionsFor(table);
    // Latch acquisition in key (= column-name) order; pathless columns take
    // the exclusive latch so no path can be created (and built from a
    // half-appended base) while the row lands.
    std::vector<size_t> order(ncols);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return rel->schema().column(a).name < rel->schema().column(b).name;
    });

    Oid oid = 0;
    {
      std::vector<std::shared_lock<std::shared_mutex>> shared_locks;
      std::vector<std::unique_lock<std::shared_mutex>> unique_locks;
      for (size_t idx : order) {
        ColumnAccel* accel = accels[idx];
        bool shared = accel->has_path.load(std::memory_order_acquire) &&
                      accel->path->concurrency() ==
                          PathConcurrency::kSharedReads;
        if (shared) {
          shared_locks.emplace_back(accel->latch);
        } else {
          unique_locks.emplace_back(accel->latch);
        }
      }
      std::unique_lock<std::shared_mutex> base(ts->base_latch);

      // Stamp before the physical append: any reader that can observe the
      // row physically must find its (uncommitted) version stamp.
      oid = BaseOid(*rel) + rel->num_rows();
      vt->NoteInsert(oid, TxnStamp(scope.txn));
      Touch(scope, table, oid);  // with the stamp: rollback must revert it
      CRACK_RETURN_NOT_OK(rel->AppendRow(values));
      result.io.tuples_written += ncols;
      for (size_t c = 0; c < ncols; ++c) {
        // Every materialized accelerator absorbs the new row. Re-read under
        // the held latch: a path that appeared since the mode snapshot sits
        // behind our exclusive latch and gets notified; one that never
        // appeared will lazy-build from the appended base.
        if (!accels[c]->has_path.load(std::memory_order_acquire)) continue;
        CRACK_RETURN_NOT_OK(
            accels[c]->path->Insert(values[c], oid, &result.io));
      }
    }
    if (wal_ != nullptr) {
      durability::WalOp op;
      op.kind = durability::WalOpKind::kInsert;
      op.table = table;
      op.oid = oid;
      op.row = values;  // post-coercion: replay appends them verbatim
      PushRedo(scope, std::move(op));
    }
    // Post-statement folds (immediate / threshold) outside the DML latches.
    for (size_t c = 0; c < ncols; ++c) {
      CRACK_RETURN_NOT_OK(MaintainColumn(accels[c], ts, &result.io));
    }

    result.count = 1;
    result.inserted_oid = oid;  // the new row's identity
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<QueryResult> AdaptiveStore::DeleteOids(const std::string& table,
                                              const std::vector<Oid>& oids,
                                              TxnId txn) {
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("delete-oids", table, &result.io);
    // Version stamps only — the shared store latch suffices.
    std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
    if (options_.concurrent) g.lock();
    CRACK_ASSIGN_OR_RETURN(result.count,
                           StampDeletes(table, scope, oids, &result.io));
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<QueryResult> AdaptiveStore::Delete(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    TxnId txn) {
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
    if (options_.concurrent) g.lock();
    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("delete", table, &result.io);
    CRACK_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                           WhereOids(table, conjuncts, scope, &result.io));
    // Deletes are version stamps only — no access-path latches needed; the
    // rows stay physically in place until vacuum folds them out.
    CRACK_ASSIGN_OR_RETURN(result.count,
                           StampDeletes(table, scope, oids, &result.io));
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<QueryResult> AdaptiveStore::Update(
    const std::string& table, const std::vector<Assignment>& sets,
    const std::vector<ColumnRange>& conjuncts, TxnId txn) {
  if (sets.empty()) {
    return Status::InvalidArgument("UPDATE needs at least one SET clause");
  }
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
    if (options_.concurrent) g.lock();
    auto rel_result = this->table(table);
    if (!rel_result.ok()) return rel_result.status();
    std::shared_ptr<Relation> rel = *rel_result;

    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("update", table, &result.io);
    CRACK_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                           WhereOids(table, conjuncts, scope, &result.io));
    CRACK_RETURN_NOT_OK(ValidateAssignments(*rel, sets));

    std::vector<ColumnAccel*> accels(sets.size());
    // Distinct latch set, already in key order: duplicate SET clauses on
    // one column are legal (last one wins), but a shared_mutex must never
    // be acquired twice by one thread.
    std::map<std::string, ColumnAccel*> distinct;
    TableState* ts;
    {
      std::lock_guard<std::mutex> rl(registry_mu_);
      for (size_t s = 0; s < sets.size(); ++s) {
        accels[s] = &accels_[table + "." + sets[s].column];
        distinct[sets[s].column] = accels[s];
      }
      ts = &table_states_[table];
    }
    VersionedTable* vt = VersionsFor(table);

    uint64_t applied = 0;
    {
      std::vector<std::shared_lock<std::shared_mutex>> shared_locks;
      std::vector<std::unique_lock<std::shared_mutex>> unique_locks;
      for (const auto& [name, accel] : distinct) {
        bool shared = accel->has_path.load(std::memory_order_acquire) &&
                      accel->path->concurrency() ==
                          PathConcurrency::kSharedReads;
        if (shared) {
          shared_locks.emplace_back(accel->latch);
        } else {
          unique_locks.emplace_back(accel->latch);
        }
      }
      // Base exclusive: the slot overwrites must not race base readers.
      std::unique_lock<std::shared_mutex> base(ts->base_latch);

      std::vector<std::shared_ptr<Bat>> bats(sets.size());
      for (size_t s = 0; s < sets.size(); ++s) {
        bats[s] = *rel->column(sets[s].column);
      }
      for (Oid oid : oids) {
        // Write admission revalidates liveness (the row may have died
        // between the WHERE select and this write phase) and detects
        // write-write conflicts first-committer-wins.
        std::string why;
        VersionedTable::Admission adm =
            vt->AdmitWrite(oid, scope.snap, scope.txn, &why);
        if (adm == VersionedTable::Admission::kSkip) continue;
        if (adm == VersionedTable::Admission::kConflict) {
          if (scope.implicit) continue;  // pre-MVCC race semantics
          return Status::Aborted("UPDATE " + why);
        }
        Touch(scope, table, oid);
        bool row_applied = true;
        for (size_t s = 0; s < sets.size(); ++s) {
          size_t row = static_cast<size_t>(oid - bats[s]->head_base());
          // Log the superseded value (older snapshots keep reading it),
          // then write through: base first, then the accelerator's delta.
          Value old_value = bats[s]->GetValue(row);
          vt->StampUpdate(oid, sets[s].column, old_value,
                          TxnStamp(scope.txn));
          PushUndo(scope, UndoRecord{table, sets[s].column, oid,
                                     std::move(old_value)});
          CRACK_RETURN_NOT_OK(bats[s]->SetValue(row, sets[s].value));
          if (wal_ != nullptr) {
            durability::WalOp op;
            op.kind = durability::WalOpKind::kUpdate;
            op.table = table;
            op.oid = oid;
            op.column = sets[s].column;
            op.value = sets[s].value;
            PushRedo(scope, std::move(op));
          }
          result.io.tuples_written += 1;
          if (!accels[s]->has_path.load(std::memory_order_acquire)) continue;
          Status st =
              accels[s]->path->Update(oid, sets[s].value, &result.io);
          if (st.IsNotFound()) {
            // The path believes the row is physically dead (vacuum-purged
            // under our feet); skip the row rather than aborting the
            // statement half-applied.
            row_applied = false;
            continue;
          }
          CRACK_RETURN_NOT_OK(st);
        }
        if (row_applied) ++applied;
      }
    }
    for (size_t s = 0; s < sets.size(); ++s) {
      CRACK_RETURN_NOT_OK(MaintainColumn(accels[s], ts, &result.io));
    }

    result.count = applied;
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<std::vector<Oid>> AdaptiveStore::LiveOids(const std::string& table,
                                                 TxnId txn) const {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  return LiveOidsAt(table, snap);
}

Result<std::vector<Oid>> AdaptiveStore::LiveOidsAt(
    const std::string& table, const Snapshot& snap) const {
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;
  TableState* ts = TableStateFor(table);
  VersionedTable* vt = VersionsIfAny(table);
  std::shared_lock<std::shared_mutex> base(ts->base_latch);
  std::vector<Oid> oids;
  oids.reserve(rel->num_rows());
  Oid base_oid = BaseOid(*rel);
  for (size_t i = 0; i < rel->num_rows(); ++i) {
    Oid oid = base_oid + i;
    if (vt != nullptr && !vt->RowVisibleAt(oid, snap)) continue;
    oids.push_back(oid);
  }
  return oids;
}

Result<uint64_t> AdaptiveStore::LiveRowCount(const std::string& table,
                                             TxnId txn) const {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> base_lock;
  if (options_.concurrent) {
    g.lock();
    base_lock =
        std::shared_lock<std::shared_mutex>(TableStateFor(table)->base_latch);
  }
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr || vt->empty()) return rel->num_rows();
  uint64_t live = 0;
  Oid base = BaseOid(*rel);
  for (size_t i = 0; i < rel->num_rows(); ++i) {
    live += vt->RowVisibleAt(base + i, snap) ? 1 : 0;
  }
  return live;
}

Status AdaptiveStore::MarkDeleted(const std::string& table,
                                  const std::vector<Oid>& oids) {
  // Hand-over replay is an ordinary (auto-commit) delete by oid: the rows
  // get committed end stamps at a fresh timestamp; already-dead rows skip.
  auto removed = DeleteOids(table, oids);
  return removed.ok() ? Status::OK() : removed.status();
}

Result<std::vector<Oid>> AdaptiveStore::DeletedOids(
    const std::string& table) const {
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) return std::vector<Oid>{};
  std::shared_lock<std::shared_mutex> base_lock;
  if (options_.concurrent) {
    base_lock =
        std::shared_lock<std::shared_mutex>(TableStateFor(table)->base_latch);
  }
  return vt->InvisibleOids(txn_mgr_.LatestSnapshot(), BaseOid(*rel),
                           rel->num_rows());
}

Status AdaptiveStore::Verify() const {
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
  if (options_.concurrent) {
    g.lock();
    rl.lock();
  }
  for (const auto& [key, accel] : accels_) {
    if (accel.has_path.load(std::memory_order_acquire)) {
      CRACK_RETURN_NOT_OK(accel.path->Validate().WithContext(key));
    }
    if (accel.root != kInvalidPieceId) {
      CRACK_RETURN_NOT_OK(
          lineage_.CheckLossless(accel.root).WithContext(key));
    }
  }
  return Status::OK();
}

Result<AdaptiveStore::VacuumStats> AdaptiveStore::Vacuum() {
  // Quiesce the store: the physical purge calls into access paths and
  // flushes deltas outside the per-statement latch discipline.
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  VacuumStats stats;
  stats.low_water = txn_mgr_.low_water();
  IoStats io;
  obs::TraceSpan trace_span("vacuum", &io);
  for (const std::string& name : TableNames()) {
    VersionedTable* vt = VersionsIfAny(name);
    if (vt == nullptr) continue;
    VersionedTable::VacuumResult res = vt->Vacuum(stats.low_water);
    stats.rows_purged += res.purged.size();
    stats.versions_dropped += res.versions_dropped;
    stats.chain_entries_dropped += res.chain_entries_dropped;
    if (res.purged.empty()) continue;
    // Feed the purge to every materialized access path of the table, then
    // fold it through the ordinary Merge machinery.
    std::vector<ColumnAccessPath*> paths;
    {
      std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
      if (options_.concurrent) rl.lock();
      std::string prefix = name + ".";
      for (auto it = accels_.lower_bound(prefix);
           it != accels_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
           ++it) {
        if (it->second.has_path.load(std::memory_order_acquire)) {
          paths.push_back(it->second.path.get());
        }
      }
    }
    for (ColumnAccessPath* path : paths) {
      for (Oid oid : res.purged) {
        Status st = path->Delete(oid, &io);
        // NotFound: the row never physically landed (failed append);
        // AlreadyExists: an earlier purge already tombstoned it.
        if (!st.ok() && !st.IsNotFound() && !st.IsAlreadyExists()) return st;
      }
      CRACK_RETURN_NOT_OK(path->FlushDeltas(&io));
    }
  }
  AddIo(io);
  return stats;
}

Result<VersionedTable::Counts> AdaptiveStore::VersionCountsFor(
    const std::string& table) const {
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) return VersionedTable::Counts{};
  return vt->counts();
}

Result<QueryResult> AdaptiveStore::JoinEquals(const std::string& left_table,
                                              const std::string& left_column,
                                              const std::string& right_table,
                                              const std::string& right_column,
                                              Delivery delivery, TxnId txn) {
  // Joins crack base columns and fill store-wide caches without per-column
  // latches; concurrent mode gates them store-wide instead.
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span("join", left_table + "." + left_column + "=" +
                                        right_table + "." + right_column,
                            &result.io);
  CRACK_ASSIGN_OR_RETURN(
      std::vector<OidPair> pairs,
      JoinOidsInternal(left_table, left_column, right_table, right_column,
                       &result.io, txn));
  result.count = pairs.size();
  if (delivery == Delivery::kMaterialize) {
    // Materialize left ⨯ right columns of matching tuples as a 2-column view
    // of the join keys (a full wide-row join is the engine layer's job).
    (void)delivery;
  }
  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

Result<std::vector<OidPair>> AdaptiveStore::JoinOids(
    const std::string& left_table, const std::string& left_column,
    const std::string& right_table, const std::string& right_column,
    TxnId txn) {
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  IoStats io;
  auto out = JoinOidsInternal(left_table, left_column, right_table,
                              right_column, &io, txn);
  AddIo(io);
  return out;
}

AdaptiveStore::CrackCacheStamp AdaptiveStore::StampFor(
    const std::string& table) const {
  CrackCacheStamp s;
  auto rel = this->table(table);
  if (rel.ok()) s.rows = (*rel)->num_rows();
  VersionedTable* vt = VersionsIfAny(table);
  if (vt != nullptr) s.counts = vt->counts();
  return s;
}

Result<std::vector<OidPair>> AdaptiveStore::JoinOidsInternal(
    const std::string& left_table, const std::string& left_column,
    const std::string& right_table, const std::string& right_column,
    IoStats* stats, TxnId txn) {
  auto left = ResolveColumn(left_table, left_column);
  if (!left.ok()) return left.status();
  auto right = ResolveColumn(right_table, right_column);
  if (!right.ok()) return right.status();

  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  SnapshotView lview = ViewForColumn(left_table, left_column, snap);
  SnapshotView rview = ViewForColumn(right_table, right_column, snap);

  if (options_.strategy != AccessStrategy::kCrack) {
    return HashJoinOids(*left, *right, stats, &lview, &rview);
  }

  std::string key = left_table + "." + left_column + "|" + right_table + "." +
                    right_column;
  CrackCacheStamp lstamp = StampFor(left_table);
  CrackCacheStamp rstamp = StampFor(right_table);
  auto it = join_cracks_.find(key);
  if (it != join_cracks_.end() && (it->second.left_stamp != lstamp ||
                                   it->second.right_stamp != rstamp)) {
    // Version churn since the ^ crack was built: its clones snapshot base
    // data that has changed (append, in-place update, vacuum). Rebuild.
    join_cracks_.erase(it);
    it = join_cracks_.end();
  }
  if (it == join_cracks_.end()) {
    CRACK_ASSIGN_OR_RETURN(JoinCrackResult cracked,
                           CrackJoin(*left, *right, stats));
    if (options_.track_lineage) {
      PieceId lroot = lineage_.AddRoot(left_table + "." + left_column,
                                       (*left)->size());
      PieceId rroot = lineage_.AddRoot(right_table + "." + right_column,
                                       (*right)->size());
      (void)lineage_.AddCrack(
          CrackOp::kWedge, {lroot, rroot},
          {{key + " P1 (L match)", cracked.left.split},
           {key + " P2 (L rest)", (*left)->size() - cracked.left.split},
           {key + " P3 (R match)", cracked.right.split},
           {key + " P4 (R rest)", (*right)->size() - cracked.right.split}});
    }
    JoinCrackEntry entry;
    entry.cracked = std::move(cracked);
    entry.left_stamp = lstamp;
    entry.right_stamp = rstamp;
    it = join_cracks_.emplace(key, std::move(entry)).first;
  }
  return JoinMatchingAreas(it->second.cracked, stats, &lview, &rview);
}

Result<std::vector<GroupAggregate>> AdaptiveStore::GroupBy(
    const std::string& table, const std::string& group_column,
    const std::string& agg_column, AggKind kind, TxnId txn) {
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  auto grp = ResolveColumn(table, group_column);
  if (!grp.ok()) return grp.status();
  auto agg = ResolveColumn(table, agg_column);
  if (!agg.ok()) return agg.status();

  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  SnapshotView group_view = ViewForColumn(table, group_column, snap);
  SnapshotView agg_view = ViewForColumn(table, agg_column, snap);

  IoStats io;
  obs::TraceSpan trace_span("group-by", table + "." + group_column, &io);
  std::string key = table + "." + group_column;
  CrackCacheStamp stamp = StampFor(table);
  auto it = group_cracks_.find(key);
  if (it != group_cracks_.end() && it->second.stamp != stamp) {
    // Version churn since the Ω crack was built (see JoinOidsInternal).
    group_cracks_.erase(it);
    it = group_cracks_.end();
  }
  if (it == group_cracks_.end()) {
    CRACK_ASSIGN_OR_RETURN(GroupCrackResult cracked, CrackGroup(*grp, &io));
    if (options_.track_lineage && cracked.groups.size() <= 1024) {
      PieceId root = lineage_.AddRoot(key + " (pre-Ω)", (*grp)->size());
      std::vector<std::pair<std::string, uint64_t>> outputs;
      outputs.reserve(cracked.groups.size());
      for (const GroupPiece& g : cracked.groups) {
        outputs.emplace_back(
            StrFormat("%s=%lld", key.c_str(), static_cast<long long>(g.value)),
            g.size());
      }
      (void)lineage_.AddCrack(CrackOp::kOmega, {root}, outputs);
    }
    GroupCrackEntry entry;
    entry.cracked = std::move(cracked);
    entry.stamp = stamp;
    it = group_cracks_.emplace(key, std::move(entry)).first;
  }
  auto out =
      AggregateGroups(it->second.cracked, *agg, kind, &io, &group_view,
                      &agg_view);
  AddIo(io);
  return out;
}

Result<ProjectionCrackResult> AdaptiveStore::Project(
    const std::string& table, const std::vector<std::string>& attrs) {
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  auto rel = this->table(table);
  if (!rel.ok()) return rel.status();
  IoStats io;
  auto out = CrackProjection(*rel, attrs, &io);
  if (out.ok() && options_.track_lineage) {
    PieceId root = lineage_.AddRoot(table + " (pre-Ψ)", (*rel)->num_rows());
    (void)lineage_.AddCrack(
        CrackOp::kPsi, {root},
        {{out->projected->name(), out->projected->num_rows()},
         {out->remainder->name(), out->remainder->num_rows()}});
  }
  AddIo(io);
  return out;
}

Result<std::shared_ptr<Relation>> AdaptiveStore::MaterializeSelection(
    const std::string& table, const CrackSelection& selection,
    const std::string& result_name, IoStats* stats) {
  // Concurrent mode: base reads under the table base latch. The caller
  // remains responsible for the view's validity (views over cracker columns
  // are only stable while the owning column is quiesced).
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> base_lock;
  if (options_.concurrent) {
    g.lock();
    base_lock = std::shared_lock<std::shared_mutex>(
        TableStateFor(table)->base_latch);
  }
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;

  auto out_result = Relation::Create(result_name, rel->schema());
  if (!out_result.ok()) return out_result.status();
  std::shared_ptr<Relation> out = *out_result;

  size_t n = selection.oids.size();
  for (size_t c = 0; c < rel->num_columns(); ++c) {
    const std::shared_ptr<Bat>& src = rel->column(c);
    const std::shared_ptr<Bat>& dst = out->column(c);
    Oid base = src->head_base();
    for (size_t i = 0; i < n; ++i) {
      size_t row = static_cast<size_t>(selection.oids.Get<Oid>(i) - base);
      Status st = dst->AppendValue(src->GetValue(row));
      if (!st.ok()) return st;
    }
  }
  if (stats != nullptr) {
    stats->tuples_read += n * rel->num_columns();
    stats->tuples_written += n * rel->num_columns();
  }
  return out;
}

Result<std::shared_ptr<Relation>> AdaptiveStore::MaterializeRows(
    const std::string& table, const std::vector<Oid>& oids,
    const std::vector<std::string>& columns, TxnId txn, IoStats* stats) {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> base_lock;
  if (options_.concurrent) {
    g.lock();
    base_lock = std::shared_lock<std::shared_mutex>(
        TableStateFor(table)->base_latch);
  }
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(table));
  std::vector<ColumnDef> defs;
  std::vector<size_t> sources;
  if (columns.empty()) {
    defs = rel->schema().columns();
    for (size_t i = 0; i < defs.size(); ++i) sources.push_back(i);
  } else {
    for (const std::string& name : columns) {
      int idx = rel->schema().FieldIndex(name);
      if (idx < 0) {
        return Status::NotFound("no column '" + name + "' in " + table);
      }
      defs.push_back(rel->schema().column(static_cast<size_t>(idx)));
      sources.push_back(static_cast<size_t>(idx));
    }
  }
  CRACK_ASSIGN_OR_RETURN(
      std::shared_ptr<Relation> out,
      Relation::Create(table + "_result", Schema(std::move(defs))));
  for (size_t c = 0; c < sources.size(); ++c) {
    const std::shared_ptr<Bat>& src = rel->column(sources[c]);
    const std::shared_ptr<Bat>& dst = out->column(c);
    SnapshotView view = ViewForColumn(
        table, rel->schema().column(sources[c]).name, snap);
    std::unordered_map<Oid, const Value*> overridden;
    for (const auto& [oid, value] : view.overrides()) {
      overridden.emplace(oid, &value);
    }
    Oid base = src->head_base();
    for (Oid oid : oids) {
      auto ov = overridden.empty() ? overridden.end() : overridden.find(oid);
      Status st =
          ov != overridden.end()
              ? dst->AppendValue(*ov->second)
              : dst->AppendValue(src->GetValue(static_cast<size_t>(
                    oid - base)));
      if (!st.ok()) return st;
    }
  }
  if (stats != nullptr) {
    stats->tuples_read += oids.size() * sources.size();
    stats->tuples_written += oids.size() * sources.size();
  }
  return out;
}

Result<ColumnAggregates> AdaptiveStore::AggregateOids(
    const std::string& table, const std::string& column,
    const std::vector<Oid>& oids, TxnId txn) {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> col,
                         ResolveColumn(table, column));
  std::shared_lock<std::shared_mutex> base(TableStateFor(table)->base_latch);
  return AggregateCandidates(
      *col, ViewForColumn(table, column, snap).overrides(), oids);
}

Result<ColumnAggregates> AdaptiveStore::AggregateWhere(
    const std::string& table, const std::string& column,
    const std::vector<ColumnRange>& conjuncts, TxnId txn) {
  if (conjuncts.empty() ||
      (conjuncts.size() == 1 && conjuncts[0].column == column)) {
    Result<ColumnAggregates> pushed = AggregateRange(
        table, column,
        conjuncts.empty() ? TypedRange::All() : conjuncts[0].range, txn);
    if (pushed.ok()) return pushed;
  }
  // No pushdown: reduce the WHERE's candidate-list survivors, unsorted.
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> col,
                         ResolveColumn(table, column));
  QueryResult rows;
  obs::TraceSpan trace_span(
      options_.concurrent ? "aggregate(shared)" : "aggregate",
      table + "." + column, &rows.io);
  if (conjuncts.empty()) {
    CRACK_ASSIGN_OR_RETURN(rows.scan_oids, LiveOidsAt(table, snap));
  } else {
    CRACK_RETURN_NOT_OK(
        ConjunctionCandidates(table, conjuncts, txn, snap, &rows));
    if (rows.has_span_set) ShapeConjunctionAnswer(Delivery::kView, &rows);
  }
  std::shared_lock<std::shared_mutex> base(TableStateFor(table)->base_latch);
  CRACK_ASSIGN_OR_RETURN(
      ColumnAggregates out,
      AggregateCandidates(*col, ViewForColumn(table, column, snap).overrides(),
                          rows.scan_oids));
  rows.io += out.io;
  out.io = rows.io;
  return out;
}

const AdaptiveStore::ColumnAccel* AdaptiveStore::BuiltAccel(
    const std::string& table, const std::string& column) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  auto it = accels_.find(table + "." + column);
  if (it == accels_.end() ||
      !it->second.has_path.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return &it->second;
}

Result<ColumnAccessPath*> AdaptiveStore::AccessPathFor(
    const std::string& table, const std::string& column) const {
  // Concurrent mode: the borrowed pointer is safe to hand out (paths are
  // never destroyed while the store lives), but using it for introspection
  // is only meaningful on a quiesced store.
  const ColumnAccel* accel = BuiltAccel(table, column);
  if (accel == nullptr) {
    return Status::NotFound("no access path yet for " + table + "." + column);
  }
  return accel->path.get();
}

Result<size_t> AdaptiveStore::NumPieces(const std::string& table,
                                        const std::string& column) const {
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  const ColumnAccel* accel = BuiltAccel(table, column);
  if (accel == nullptr) return size_t{1};
  std::shared_lock<std::shared_mutex> col(accel->latch);
  return accel->path->NumPieces();
}

Result<std::string> AdaptiveStore::ExplainColumn(
    const std::string& table, const std::string& column) const {
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  auto bat = ResolveColumn(table, column);
  if (!bat.ok()) return bat.status();
  std::string out = StrFormat("%s.%s: %s, %zu tuples, strategy=%s\n",
                              table.c_str(), column.c_str(),
                              ValueTypeName((*bat)->tail_type()),
                              (*bat)->size(),
                              AccessStrategyName(options_.strategy));
  const ColumnAccel* accel = BuiltAccel(table, column);
  if (accel == nullptr) return out + "no accelerator yet (never queried)\n";
  // Exclusive: Explain reads piece tables and delta sizes wholesale.
  std::unique_lock<std::shared_mutex> col(accel->latch);
  return out + accel->path->Explain();
}

Status AdaptiveStore::SetPolicy(const CrackPolicyOptions& options) {
  // SET POLICY is a Configure with only the policy axis changed: the SQL
  // executor, the shell and startup options all flow through the same
  // validation and re-arm path.
  DbOptions next = db_options_;
  next.policy = options;
  return Configure(next);
}

Status AdaptiveStore::ApplyPolicy(const CrackPolicyOptions& options) {
  // Statement-level exclusion first, then per-column exclusive latches — the
  // same order every write takes, so no deadlock with running queries.
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  options_.policy = options;  // paths built later inherit the new policy
  std::vector<ColumnAccel*> accels;
  {
    std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
    if (options_.concurrent) rl.lock();
    for (auto& [key, accel] : accels_) {
      if (accel.has_path.load(std::memory_order_acquire)) {
        accels.push_back(&accel);
      }
    }
  }
  for (ColumnAccel* accel : accels) {
    std::unique_lock<std::shared_mutex> col(accel->latch, std::defer_lock);
    if (options_.concurrent) col.lock();
    CRACK_RETURN_NOT_OK(accel->path->SetPolicyOptions(options));
  }
  return Status::OK();
}

std::vector<AdaptiveStore::ColumnPolicy> AdaptiveStore::PolicyReport() const {
  std::shared_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  std::vector<ColumnPolicy> report;
  std::vector<std::pair<std::string, const ColumnAccel*>> accels;
  {
    std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
    if (options_.concurrent) rl.lock();
    for (const auto& [key, accel] : accels_) {
      if (accel.has_path.load(std::memory_order_acquire)) {
        accels.emplace_back(key, &accel);
      }
    }
  }
  for (const auto& [key, accel] : accels) {
    ColumnPolicy row;
    size_t dot = key.find('.');
    row.table = key.substr(0, dot);
    row.column = dot == std::string::npos ? "" : key.substr(dot + 1);
    std::shared_lock<std::shared_mutex> col(accel->latch, std::defer_lock);
    if (options_.concurrent) col.lock();
    row.status = accel->path->PolicyStatus();
    report.push_back(std::move(row));
  }
  return report;
}

void AdaptiveStore::UpdateLineage(const std::string& table,
                                  const std::string& column,
                                  ColumnAccel* accel) {
  std::optional<std::vector<size_t>> splits = accel->path->TakeSplits();
  if (!splits.has_value()) {
    // The splits since the last fold were not recorded: this is the first
    // fold, or pieces fused, or a delta merge rebuilt the cracker column.
    // Apply the inverse operation to the column's subtree (§3.2: "trimming
    // the graph"), size the root to the column it now partitions, and
    // re-register the surviving partitioning as one split of the root.
    std::vector<PieceInfo> pieces = accel->path->Pieces();
    const size_t span_end = pieces.back().end;
    (void)lineage_.TrimDescendants(accel->root);
    (void)lineage_.Resize(accel->root, span_end);
    accel->piece_nodes.clear();
    accel->piece_nodes[{0, span_end}] = accel->root;
    splits.emplace();
    for (size_t i = 1; i < pieces.size(); ++i) {
      splits->push_back(pieces[i].begin);
    }
  }
  if (splits->empty()) return;
  // Cuts only ever subdivide, so every split lies strictly inside exactly
  // one registered leaf: the last one starting before it. Log one Ξ
  // application per split leaf, in slot order.
  std::map<std::pair<size_t, size_t>, std::vector<size_t>> by_parent;
  for (size_t pos : *splits) {
    // A leaf starts at slot 0 and pos > 0, so the predecessor exists.
    auto it = std::prev(accel->piece_nodes.lower_bound({pos, 0}));
    CRACK_DCHECK(it->first.first < pos && pos < it->first.second);
    by_parent[it->first].push_back(pos);
  }
  const std::string prefix = table + "." + column;
  for (auto& [range, cuts] : by_parent) {
    std::sort(cuts.begin(), cuts.end());
    std::vector<std::pair<size_t, size_t>> children;
    children.reserve(cuts.size() + 1);
    size_t begin = range.first;
    for (size_t cut : cuts) {
      children.emplace_back(begin, cut);
      begin = cut;
    }
    children.emplace_back(begin, range.second);
    std::vector<std::pair<std::string, uint64_t>> outputs;
    outputs.reserve(children.size());
    for (const auto& [b, e] : children) {
      outputs.emplace_back(StrFormat("%s[%zu,%zu)", prefix.c_str(), b, e),
                           e - b);
    }
    auto node = accel->piece_nodes.find(range);
    auto ids = lineage_.AddCrack(CrackOp::kXi, {node->second}, outputs);
    CRACK_DCHECK(ids.ok());
    accel->piece_nodes.erase(node);
    for (size_t i = 0; i < children.size(); ++i) {
      accel->piece_nodes[children[i]] = (*ids)[i];
    }
  }
}

}  // namespace crackstore
