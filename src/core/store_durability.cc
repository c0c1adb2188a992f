// Copyright 2026 The CrackStore Authors
//
// The durability half of AdaptiveStore: the Open/Configure/Checkpoint/Close
// lifecycle, recovery (checkpoint load + commit-log replay), and the
// post-commit maintenance hook (autovacuum, auto-checkpoint). The cracking
// engine itself lives in adaptive_store.cc; nothing here touches
// accelerators — they are disposable by construction and rebuild lazily
// from the first queries after recovery.

#include <utility>

#include "core/adaptive_store.h"
#include "durability/checkpoint.h"
#include "durability/fs.h"
#include "obs/instruments.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crackstore {

namespace {

/// The type-default row used to fill oid gaps during replay: a gap is a row
/// whose insert never committed (its record is not in the log), so the
/// filler only reserves the slot — it is stamped aborted, visible to
/// nobody, and reclaimed by vacuum.
std::vector<Value> FillerRow(const Schema& schema) {
  std::vector<Value> row;
  row.reserve(schema.num_columns());
  for (const ColumnDef& col : schema.columns()) {
    switch (col.type) {
      case ValueType::kInt32:
        row.emplace_back(int32_t{0});
        break;
      case ValueType::kInt64:
        row.emplace_back(int64_t{0});
        break;
      case ValueType::kOid:
        row.push_back(Value::FromOid(0));
        break;
      case ValueType::kFloat64:
        row.emplace_back(0.0);
        break;
      case ValueType::kString:
        row.emplace_back(std::string());
        break;
    }
  }
  return row;
}

Oid HeadBase(const Relation& rel) {
  return rel.num_columns() > 0 ? rel.column(size_t{0})->head_base() : 0;
}

}  // namespace

Status AdaptiveStore::ValidateOptions(const DbOptions& options) {
  if (options.durability == DurabilityMode::kWal && options.path.empty()) {
    return Status::InvalidArgument(
        "DbOptions: durability=kWal requires a database path");
  }
  if (options.fsync_policy == durability::FsyncPolicy::kInterval &&
      options.fsync_interval_seconds <= 0.0) {
    return Status::InvalidArgument(
        "DbOptions: fsync_interval_seconds must be positive under "
        "FsyncPolicy::kInterval");
  }
  if (options.policy.min_piece_size == 0) {
    return Status::InvalidArgument(
        "DbOptions: policy.min_piece_size must be at least 1");
  }
  if (options.policy.progressive_budget <= 0.0 ||
      options.policy.progressive_budget > 1.0) {
    return Status::InvalidArgument(
        "DbOptions: policy.progressive_budget must be in (0, 1]");
  }
  if (options.delta_merge.threshold_fraction < 0.0) {
    return Status::InvalidArgument(
        "DbOptions: delta_merge.threshold_fraction must be non-negative");
  }
  return Status::OK();
}

Result<std::unique_ptr<AdaptiveStore>> AdaptiveStore::Open(
    const DbOptions& options) {
  CRACK_RETURN_NOT_OK(ValidateOptions(options));
  auto store = std::make_unique<AdaptiveStore>(options.store_options());
  store->db_options_ = options;
  // The constructor may have forced track_lineage off (concurrent mode);
  // keep the mirror honest.
  store->db_options_.track_lineage = store->options_.track_lineage;
  if (options.durability == DurabilityMode::kWal) {
    CRACK_RETURN_NOT_OK(store->OpenDurable());
  }
  return store;
}

Status AdaptiveStore::Configure(const DbOptions& options) {
  CRACK_RETURN_NOT_OK(ValidateOptions(options));
  // Construction-frozen axes: the store was built around them.
  if (options.strategy != options_.strategy) {
    return Status::InvalidArgument(
        "Configure: strategy is fixed at Open (reopen to change it)");
  }
  if (options.concurrent != options_.concurrent) {
    return Status::InvalidArgument(
        "Configure: concurrent is fixed at Open (reopen to change it)");
  }
  if (options.track_lineage != options_.track_lineage) {
    return Status::InvalidArgument(
        "Configure: track_lineage is fixed at Open (reopen to change it)");
  }
  if (options.durability != db_options_.durability ||
      options.path != db_options_.path) {
    return Status::InvalidArgument(
        "Configure: durability/path are fixed at Open (reopen to change "
        "them)");
  }
  if (wal_ != nullptr &&
      (options.fsync_policy != db_options_.fsync_policy ||
       options.fsync_interval_seconds !=
           db_options_.fsync_interval_seconds)) {
    return Status::InvalidArgument(
        "Configure: the fsync policy is fixed at Open (reopen to change "
        "it)");
  }
  CRACK_RETURN_NOT_OK(ApplyPolicy(options.policy));
  // Defaults for paths built from here on; existing paths keep their built
  // configuration for these axes (policy above re-arms in place).
  options_.merge_budget = options.merge_budget;
  options_.delta_merge = options.delta_merge;
  db_options_.policy = options.policy;
  db_options_.merge_budget = options.merge_budget;
  db_options_.delta_merge = options.delta_merge;
  db_options_.checkpoint_interval_bytes = options.checkpoint_interval_bytes;
  db_options_.autovacuum_version_threshold =
      options.autovacuum_version_threshold;
  return Status::OK();
}

Status AdaptiveStore::OpenDurable() {
  WallTimer timer;
  db_dir_ = db_options_.path;
  CRACK_RETURN_NOT_OK(durability::EnsureDir(db_dir_));
  auto manifest = durability::ReadManifest(db_dir_);
  if (!manifest.ok() && !manifest.status().IsNotFound()) {
    return manifest.status();
  }
  uint64_t next_lsn = 1;
  uint64_t append_offset = 0;
  if (manifest.ok()) {
    manifest_ = *manifest;
    recovery_info_.recovered = true;
    if (!manifest_.checkpoint_file.empty()) {
      CRACK_ASSIGN_OR_RETURN(
          durability::CheckpointData ckpt,
          durability::ReadCheckpoint(
              durability::JoinPath(db_dir_, manifest_.checkpoint_file)));
      txn_mgr_.AdvanceTo(ckpt.last_commit_ts);
      next_lsn = ckpt.next_lsn;
      recovery_info_.checkpoint_tables = ckpt.tables.size();
      for (const durability::ColumnPolicyState& p : ckpt.policies) {
        if (p.policy > static_cast<uint8_t>(CrackPolicy::kProgressive)) {
          continue;  // a future policy this build does not know; skip it
        }
        recovered_policies_[p.column_key] = {
            static_cast<CrackPolicy>(p.policy), p.progressive_budget};
      }
      replaying_ = true;
      for (durability::LoadedTable& table : ckpt.tables) {
        Status st = InstallRecoveredTable(std::move(table));
        if (!st.ok()) {
          replaying_ = false;
          return st;
        }
      }
      replaying_ = false;
    }
    replaying_ = true;
    auto replay = durability::ReplayWalFile(
        durability::JoinPath(db_dir_, manifest_.wal_file),
        [&](const durability::WalCommit& commit) {
          return ApplyWalCommit(commit);
        },
        [&](std::string_view image) {
          CRACK_ASSIGN_OR_RETURN(durability::LoadedTable table,
                                 durability::DecodeTableImage(image));
          return InstallRecoveredTable(std::move(table));
        });
    replaying_ = false;
    CRACK_RETURN_NOT_OK(replay.status());
    txn_mgr_.AdvanceTo(replay->max_commit_ts);
    recovery_info_.replayed_commits = replay->commits;
    recovery_info_.replayed_records = replay->records;
    recovery_info_.torn_tail = replay->torn_tail;
    if (replay->last_lsn >= next_lsn) next_lsn = replay->last_lsn + 1;
    append_offset = replay->valid_bytes;
  } else {
    manifest_.generation = 1;
    manifest_.checkpoint_file.clear();
    manifest_.wal_file = manifest_.WalName();
    CRACK_RETURN_NOT_OK(durability::WriteManifest(db_dir_, manifest_));
  }
  CRACK_ASSIGN_OR_RETURN(
      wal_, durability::WalWriter::Open(
                durability::JoinPath(db_dir_, manifest_.wal_file),
                db_options_.fsync_policy, db_options_.fsync_interval_seconds,
                next_lsn, append_offset));
  recovery_info_.replay_seconds = timer.ElapsedSeconds();
  obs::RecordWalReplay(
      recovery_info_.replayed_records,
      static_cast<uint64_t>(recovery_info_.replay_seconds * 1e9));
  return Status::OK();
}

Status AdaptiveStore::InstallRecoveredTable(durability::LoadedTable table) {
  std::vector<Oid> dead = std::move(table.dead_oids);
  std::string name = table.rel->name();
  CRACK_RETURN_NOT_OK(AddTable(std::move(table.rel)));
  // Re-mark the rows dead at snapshot time: an end stamp of 0 ("deleted
  // before time began") hides them from every present and future snapshot;
  // vacuum reclaims them like any other dead row.
  VersionedTable* vt = VersionsFor(name);
  for (Oid oid : dead) vt->StampDelete(oid, /*stamp=*/0);
  return Status::OK();
}

Status AdaptiveStore::ApplyWalCommit(const durability::WalCommit& commit) {
  for (const durability::WalOp& op : commit.ops) {
    auto rel_result = this->table(op.table);
    if (!rel_result.ok()) {
      return Status::IoError("wal replay: commit " +
                             std::to_string(commit.commit_ts) +
                             " references unknown table '" + op.table + "'");
    }
    Relation& rel = **rel_result;
    VersionedTable* vt = VersionsFor(op.table);
    switch (op.kind) {
      case durability::WalOpKind::kInsert: {
        Oid base = HeadBase(rel);
        if (op.oid < base) {
          return Status::IoError("wal replay: insert oid below table base");
        }
        // Commit order is not oid order: a row whose insert committed later
        // may carry a smaller oid than one already replayed. Fill the gap
        // with aborted placeholders; a record landing inside the existing
        // head overwrites the placeholder it reserved.
        Oid next = base + rel.num_rows();
        while (next < op.oid) {
          vt->NoteInsert(next, kTsAborted);
          CRACK_RETURN_NOT_OK(rel.AppendRow(FillerRow(rel.schema())));
          ++next;
        }
        if (op.row.size() != rel.num_columns()) {
          return Status::IoError("wal replay: insert row width mismatch");
        }
        if (op.oid < next) {
          size_t row = static_cast<size_t>(op.oid - base);
          for (size_t c = 0; c < rel.num_columns(); ++c) {
            CRACK_RETURN_NOT_OK(
                rel.column(c)->SetValue(row, op.row[c]));
          }
        } else {
          CRACK_RETURN_NOT_OK(rel.AppendRow(op.row));
        }
        vt->NoteInsert(op.oid, commit.commit_ts);
        break;
      }
      case durability::WalOpKind::kDelete:
        vt->StampDelete(op.oid, commit.commit_ts);
        break;
      case durability::WalOpKind::kUpdate: {
        auto bat_result = rel.column(op.column);
        if (!bat_result.ok()) return bat_result.status();
        Bat& bat = **bat_result;
        if (op.oid < bat.head_base() ||
            op.oid - bat.head_base() >= bat.size()) {
          return Status::IoError("wal replay: update oid out of range");
        }
        // Write through to the base slot only. No version chain entry: the
        // superseded value served pre-crash snapshots, and none survive.
        CRACK_RETURN_NOT_OK(bat.SetValue(
            static_cast<size_t>(op.oid - bat.head_base()), op.value));
        break;
      }
    }
  }
  return Status::OK();
}

Status AdaptiveStore::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "not a durable store (open with DurabilityMode::kWal)");
  }
  // Quiesce: base columns must not move while their images stream out. With
  // the global lock held exclusively no statement can run, and with no
  // transaction open none can commit mid-copy.
  std::unique_lock<std::shared_mutex> g(global_mu_, std::defer_lock);
  if (options_.concurrent) g.lock();
  if (txn_mgr_.active_count() > 0) {
    return Status::Aborted("checkpoint requires no active transactions");
  }
  return CheckpointLocked();
}

Status AdaptiveStore::CheckpointLocked() {
  Snapshot snap = txn_mgr_.LatestSnapshot();
  std::vector<std::shared_ptr<Relation>> pinned;
  std::vector<durability::TableSnapshot> snapshots;
  for (const std::string& name : TableNames()) {
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(name));
    durability::TableSnapshot ts;
    ts.rel = rel.get();
    ts.head_base = HeadBase(*rel);
    if (VersionedTable* vt = VersionsIfAny(name)) {
      ts.dead_oids =
          vt->InvisibleOids(snap, ts.head_base, rel->num_rows());
    }
    pinned.push_back(std::move(rel));
    snapshots.push_back(std::move(ts));
  }

  // Persist each materialized column's tuned policy (v2 section): the
  // effective policy — for kAuto, what the detector converged on — plus
  // the progressive budget, so the reopened store resumes it. Gathered
  // inline (not via PolicyReport) because the caller already holds the
  // global lock exclusively in concurrent mode; the quiesce also makes
  // column latches unnecessary.
  std::vector<durability::ColumnPolicyState> policies;
  {
    std::unique_lock<std::mutex> rl(registry_mu_, std::defer_lock);
    if (options_.concurrent) rl.lock();
    for (const auto& [key, accel] : accels_) {
      if (!accel.has_path.load(std::memory_order_acquire)) continue;
      PathPolicyStatus status = accel.path->PolicyStatus();
      if (!status.crack) continue;
      durability::ColumnPolicyState p;
      p.column_key = key;
      p.policy = static_cast<uint8_t>(status.effective);
      p.progressive_budget = status.progressive_budget;
      policies.push_back(std::move(p));
    }
  }

  durability::Manifest next = manifest_;
  next.generation += 1;
  next.checkpoint_file = next.CheckpointName();
  next.wal_file = next.WalName();
  uint64_t bytes = 0;
  CRACK_RETURN_NOT_OK(durability::WriteCheckpoint(
      db_dir_, next.checkpoint_file, snap.read_ts, /*next_lsn=*/1, snapshots,
      policies, &bytes));
  // Seal the old segment before publishing: a crash from here on recovers
  // either the old generation (complete) or the new one (empty log).
  CRACK_RETURN_NOT_OK(wal_->Close());
  std::string old_wal = durability::JoinPath(db_dir_, manifest_.wal_file);
  std::string old_ckpt = manifest_.checkpoint_file;
  CRACK_ASSIGN_OR_RETURN(
      std::unique_ptr<durability::WalWriter> next_wal,
      durability::WalWriter::Open(
          durability::JoinPath(db_dir_, next.wal_file),
          db_options_.fsync_policy, db_options_.fsync_interval_seconds,
          /*next_lsn=*/1, /*append_offset=*/0));
  CRACK_RETURN_NOT_OK(durability::WriteManifest(db_dir_, next));
  wal_ = std::move(next_wal);
  manifest_ = next;
  // The old generation is unreachable now; its log is truncated away whole
  // (every commit it held is inside the checkpoint).
  Status rm = durability::RemoveFile(old_wal);
  if (rm.ok() && !old_ckpt.empty()) {
    rm = durability::RemoveFile(durability::JoinPath(db_dir_, old_ckpt));
  }
  (void)rm;  // leaked garbage files are harmless; the manifest moved on
  checkpoints_.fetch_add(1);
  obs::RecordCheckpoint(bytes);
  return Status::OK();
}

Status AdaptiveStore::Close() {
  if (closed_ || wal_ == nullptr) {
    closed_ = true;
    return Status::OK();
  }
  // Transactions still open lose their work — that is what un-durable
  // means. Roll them back so the final checkpoint sees committed state
  // only.
  std::vector<TxnId> open;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    for (const auto& [txn, state] : txn_states_) open.push_back(txn);
  }
  for (TxnId txn : open) {
    Status rb = Rollback(txn);
    (void)rb;
  }
  Status ckpt = Checkpoint();
  Status sealed = wal_->Close();
  closed_ = true;
  // A failed final checkpoint is not data loss — the sealed log still
  // replays — but the caller should hear about it.
  if (!ckpt.ok()) return ckpt;
  return sealed;
}

void AdaptiveStore::MaybeRunMaintenance() {
  const uint64_t vacuum_threshold = db_options_.autovacuum_version_threshold;
  const uint64_t ckpt_bytes = db_options_.checkpoint_interval_bytes;
  const bool checkpointing = wal_ != nullptr && ckpt_bytes > 0;
  if (vacuum_threshold == 0 && !checkpointing) return;
  // Amortize: the triggers read registry-wide counters, so probe them every
  // few commits rather than on each one.
  constexpr uint64_t kCommitsPerProbe = 16;
  if (commits_since_maintenance_.fetch_add(1, std::memory_order_relaxed) +
          1 <
      kCommitsPerProbe) {
    return;
  }
  if (maintenance_running_.exchange(true)) return;  // someone else is on it
  commits_since_maintenance_.store(0, std::memory_order_relaxed);
  if (vacuum_threshold > 0 && txn_mgr_.active_count() == 0) {
    uint64_t footprint = 0;
    for (const std::string& name : TableNames()) {
      if (VersionedTable* vt = VersionsIfAny(name)) {
        VersionedTable::Counts c = vt->counts();
        footprint += c.row_versions + c.chain_entries + c.purged;
      }
    }
    if (footprint >= vacuum_threshold) {
      auto stats = Vacuum();
      if (stats.ok()) {
        autovacuum_runs_.fetch_add(1);
        obs::RecordAutovacuum();
      }
    }
  }
  if (checkpointing && wal_->file_bytes() >= ckpt_bytes &&
      txn_mgr_.active_count() == 0) {
    Status st = Checkpoint();  // best effort; Aborted just means "later"
    (void)st;
  }
  maintenance_running_.store(false);
}

}  // namespace crackstore
