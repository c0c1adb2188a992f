// Copyright 2026 The CrackStore Authors
//
// Workload `mixed_txn`: one client in a closed loop on a concurrent store
// with the commit log on and fsync=interval (see StoreOptions). R(c0, c1) holds 1M rows of int64 permutations of 1..N (16 MB),
// loaded and checkpointed at set-up. The global TaskPool has no workers.
// The auto-checkpoint threshold is lowered so that checkpoints fire several
// times per round; autovacuum stays at its default (see StoreOptions). One
// client, not several: with two client threads, load from other tenants of
// a shared machine moved the figures more than a gate's bound, and whether
// maintenance ran at a commit depended on whether the other client was
// inside a transaction.
//
// About 70% of operations are reads on zipf(0.99)-skewed c0 keys — narrow
// range COUNTs and point reads — and 30% are write transactions on the
// same skewed keys:
//   BEGIN; UPDATE R SET c1 = v WHERE c0 = k; INSERT INTO R VALUES (k', v');
//   [one in ten: DELETE FROM R WHERE c0 = k'';] COMMIT
// The transaction manager, version log, snapshots, range latches, the WAL
// and checkpoints do the work; this is the only workload on the concurrent
// code path.
//
// Checks: every point read, UPDATE and DELETE must see exactly the rows the
// client's WriteLedger expects, point reads return only the asked key, and
// after the stream live rows and SUM(c0) must equal the ledger's totals.
// Then the database is closed and reopened from disk: rows, SUM(c0),
// SUM(c1) and a fixed set of range counts must read as before the close.

#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "rng.h"

namespace sqlbench {
namespace {

constexpr int64_t kRows = 1'000'000;
constexpr size_t kOpsPerRound = 12000;
constexpr double kZipf = 0.99;
// Auto-checkpoint after 256 KiB of WAL (DbOptions default: 64 MiB), so a
// round writes several checkpoints.
constexpr uint64_t kCheckpointBytes = 256ull << 10;

crackstore::DbOptions StoreOptions(const std::string& path) {
  crackstore::DbOptions o;
  o.concurrent = true;
  o.durability = crackstore::DurabilityMode::kWal;
  o.path = path;
  // The commit log is synced at most every 50 ms (the default interval),
  // not at each COMMIT (the DbOptions default policy): with fsync=commit
  // over a third of the stream waits on the disk, and I/O from other tenants
  // of a shared machine spread throughput over ten seeds by 50%.
  o.fsync_policy = crackstore::durability::FsyncPolicy::kInterval;
  o.checkpoint_interval_bytes = kCheckpointBytes;
  // Autovacuum stays at its default threshold (65536 version entries),
  // which a round does not reach. Lowered so that it fires within a round
  // (8192 entries), each run folds the whole table (about 1M rows) and
  // holds the client for 10-35 s, which no round can absorb.
  return o;
}

struct Op {
  enum Kind : uint8_t { kRangeCount, kPointRead, kTxn } kind;
  int64_t key;      // read key, or the UPDATE key
  int64_t ins_key;  // kTxn: INSERT key
  int64_t del_key;  // kTxn: DELETE key, 0 = no DELETE
  // Reads: one statement. kTxn: UPDATE, INSERT[, DELETE].
  std::vector<std::string> sql;
};

// Answers the untimed checks compare before and after the reopen.
struct Readback {
  int64_t rows = 0, sum_c0 = 0, sum_c1 = 0;
  std::vector<int64_t> range_counts;
  bool operator==(const Readback& o) const {
    return rows == o.rows && sum_c0 == o.sum_c0 && sum_c1 == o.sum_c1 &&
           range_counts == o.range_counts;
  }
};

class MixedTxn : public Workload {
 public:
  explicit MixedTxn(const std::string& data_dir)
      : dir_(data_dir + "/mixed_txn") {}
  ~MixedTxn() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  const char* name() const override { return "mixed_txn"; }

  void Generate(uint64_t seed) override {
    Rng r0(StreamSeed(seed, 1, 0));
    Rng r1(StreamSeed(seed, 1, 1));
    Rng rh(StreamSeed(seed, 1, 2));
    c0_ = Permutation(kRows, &r0);
    c1_ = Permutation(kRows, &r1);
    // Hot order of keys: reads and writes draw zipf ranks over it, so they
    // share the hot keys.
    hot_ = Permutation(kRows, &rh);
    zipf_ = std::make_unique<ZipfTable>(kRows, kZipf);
  }

  Result<double> SetupOnly() override {
    Result<double> s = Workload::SetupOnly();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    return s;
  }

  Result<RoundOutput> RunRound(uint64_t round_seed, SpanLog* log) override {
    RoundOutput out;
    const std::vector<Op> ops = MakeOps(StreamSeed(round_seed, 3));

    auto opened = TimedSetup(log, &out);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<AdaptiveStore> store = std::move(*opened);

    Session session(store.get(), log);
    session.Reserve(ops.size() * 2);
    WriteLedger ledger(kRows);
    const Counters before = Counters::Read();
    const int64_t s0 = NowNs();
    RunStream(ops, &session, &ledger, &out);
    out.stream_s = SecondsSince(s0);
    out.delta = Counters::Read() - before;
    out.versions_rows_end = out.delta.versions_rows;
    out.versions_chain_end = out.delta.versions_chain_entries;
    out.stmts = session.records();
    out.layers = session.layers();
    out.user_bytes = ledger.user_bytes();

    // --- untimed checks: ledger totals, then the same answers after a
    // Close and a reopen from disk ---------------------------------------
    Rng rr(StreamSeed(round_seed, 4));
    std::vector<std::pair<int64_t, int64_t>> ranges;
    for (int i = 0; i < 8; ++i) {
      const int64_t w = rr.Between(1, kRows / 10);
      const int64_t lo = rr.Between(1, kRows - w + 1);
      ranges.emplace_back(lo, lo + w - 1);
    }
    Result<Readback> pre = Read(store.get(), ranges);
    if (!pre.ok()) return pre.status();
    const int64_t want_rows = kRows + ledger.rows_delta();
    const int64_t want_sum = kRows * (kRows + 1) / 2 + ledger.sum_c0_delta();
    if (pre->rows != want_rows || pre->sum_c0 != want_sum) {
      out.Wrong("after the stream: rows " + std::to_string(pre->rows) +
                " SUM(c0) " + std::to_string(pre->sum_c0) + ", ledger says " +
                std::to_string(want_rows) + " / " + std::to_string(want_sum));
    }
    Status st = CloseStore(std::move(store), log);
    if (!st.ok()) return st;
    const int64_t r0 = NowNs();
    std::unique_ptr<AdaptiveStore> reopened;
    {
      ScopedSpan span(log, "Reopen");
      auto again =
          AdaptiveStore::Open(StoreOptions(dir_));
      if (!again.ok()) return again.status();
      reopened = std::move(*again);
    }
    out.reopen_s = SecondsSince(r0);
    Result<Readback> post = Read(reopened.get(), ranges);
    if (!post.ok()) return post.status();
    if (!(*post == *pre)) {
      out.Wrong("after reopen: rows " + std::to_string(post->rows) +
                " SUM(c0) " + std::to_string(post->sum_c0) + " SUM(c1) " +
                std::to_string(post->sum_c1) + " differ from before close (" +
                std::to_string(pre->rows) + ", " + std::to_string(pre->sum_c0) +
                ", " + std::to_string(pre->sum_c1) + ")");
    }
    st = CloseStore(std::move(reopened), log);
    if (!st.ok()) return st;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    return out;
  }

 protected:
  Result<std::unique_ptr<AdaptiveStore>> Setup(SpanLog* log,
                                               RoundOutput* out) override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    auto store = OpenAndLoad(StoreOptions(dir_), {&c0_, &c1_}, log, out);
    if (!store.ok()) return store;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "Checkpoint");
      Status st = (*store)->Checkpoint();
      if (!st.ok()) return st;
    }
    out->setup_checkpoint_s = SecondsSince(t0);
    return store;
  }

 private:
  std::vector<Op> MakeOps(uint64_t seed) const {
    Rng rng(seed);
    auto key = [&] { return hot_[zipf_->Sample(&rng)]; };
    std::vector<Op> ops(kOpsPerRound);
    for (Op& op : ops) {
      const uint64_t u = rng.Below(100);
      if (u < 35) {
        op.kind = Op::kRangeCount;
        op.key = key();
        const int64_t hi = op.key + rng.Between(0, 99);
        op.sql = {"SELECT COUNT(*) FROM R WHERE c0 BETWEEN " +
                  std::to_string(op.key) + " AND " + std::to_string(hi)};
      } else if (u < 70) {
        op.kind = Op::kPointRead;
        op.key = key();
        op.sql = {"SELECT * FROM R WHERE c0 = " + std::to_string(op.key)};
      } else {
        op.kind = Op::kTxn;
        op.key = key();
        op.ins_key = key();
        op.del_key = rng.Below(10) == 0 ? key() : 0;
        op.sql = {"UPDATE R SET c1 = " + std::to_string(rng.Between(1, kRows)) +
                      " WHERE c0 = " + std::to_string(op.key),
                  "INSERT INTO R VALUES (" + std::to_string(op.ins_key) + ", " +
                      std::to_string(rng.Between(1, kRows)) + ")"};
        if (op.del_key != 0) {
          op.sql.push_back("DELETE FROM R WHERE c0 = " +
                           std::to_string(op.del_key));
        }
      }
    }
    return ops;
  }

  // The client's closed loop. It is the only writer, so the ledger knows
  // exactly how many rows each UPDATE/DELETE must touch.
  static void RunStream(const std::vector<Op>& ops, Session* s,
                        WriteLedger* ledger, RoundOutput* out) {
    for (const Op& op : ops) {
      if (op.kind != Op::kTxn) {
        auto r = s->Run(op.sql[0], StmtKind::kRead);
        ++out->attempted;
        if (!r.ok()) {
          ++out->errors;
        } else if (op.kind == Op::kPointRead) {
          const size_t n = r->rows == nullptr ? 0 : r->rows->num_rows();
          if (n != ledger->CountOf(op.key)) {
            out->Wrong(op.sql[0] + ": " + std::to_string(n) +
                       " rows, ledger says " +
                       std::to_string(ledger->CountOf(op.key)));
            continue;
          }
          if (n == 0) continue;
          const auto& col = r->rows->column(size_t{0});
          for (size_t i = 0; i < r->rows->num_rows(); ++i) {
            if (col->Get<int64_t>(i) != op.key) {
              out->Wrong(op.sql[0] + ": returned c0 = " +
                         std::to_string(col->Get<int64_t>(i)));
              break;
            }
          }
        }
        continue;
      }
      const int64_t t0 = NowNs();
      ++out->attempted;
      if (!s->Run("BEGIN", StmtKind::kBegin).ok()) {
        ++out->errors;
        ++out->aborted;
        continue;
      }
      ledger->Begin();
      bool ok = true;
      for (size_t i = 0; i < op.sql.size() && ok; ++i) {
        auto r = s->Run(op.sql[i], StmtKind::kWrite);
        ++out->attempted;
        if (!r.ok()) {
          ++out->errors;
          ok = false;
          break;
        }
        if (i == 1) {  // INSERT
          ledger->Insert(op.ins_key, 2);
          continue;
        }
        const int64_t key = i == 0 ? op.key : op.del_key;
        if (r->count != ledger->CountOf(key)) {
          out->Wrong(op.sql[i] + ": touched " + std::to_string(r->count) +
                     " rows, ledger says " +
                     std::to_string(ledger->CountOf(key)));
        }
        if (i == 0) {
          ledger->Update(r->count);
        } else {
          ledger->Delete(key);
        }
      }
      if (ok) {
        ++out->attempted;
        if (s->Run("COMMIT", StmtKind::kCommit).ok()) {
          ledger->Commit();
          out->txn_s.push_back(
              static_cast<double>(s->last_end_ns() - t0) * 1e-9);
          continue;
        }
        ++out->errors;
      } else {
        ++out->attempted;
        if (!s->Run("ROLLBACK", StmtKind::kRollback).ok()) ++out->errors;
      }
      ledger->Rollback();
      ++out->aborted;
    }
  }

  static Result<Readback> Read(
      AdaptiveStore* store,
      const std::vector<std::pair<int64_t, int64_t>>& ranges) {
    crackstore::sql::SqlSession s(store);
    Readback snap;
    auto count = s.ExecuteSql("SELECT COUNT(*) FROM R");
    auto sum0 = s.ExecuteSql("SELECT SUM(c0) FROM R");
    auto sum1 = s.ExecuteSql("SELECT SUM(c1) FROM R");
    if (!count.ok()) return count.status();
    if (!sum0.ok()) return sum0.status();
    if (!sum1.ok()) return sum1.status();
    if (sum0->groups.size() != 1 || sum1->groups.size() != 1) {
      return Status::Internal("SUM returned no row");
    }
    snap.rows = static_cast<int64_t>(count->count);
    snap.sum_c0 = sum0->groups[0].value;
    snap.sum_c1 = sum1->groups[0].value;
    for (const auto& [lo, hi] : ranges) {
      auto r = s.ExecuteSql("SELECT COUNT(*) FROM R WHERE c0 BETWEEN " +
                            std::to_string(lo) + " AND " + std::to_string(hi));
      if (!r.ok()) return r.status();
      snap.range_counts.push_back(static_cast<int64_t>(r->count));
    }
    return snap;
  }

  const std::string dir_;
  std::vector<int64_t> c0_, c1_, hot_;
  std::unique_ptr<ZipfTable> zipf_;
};

}  // namespace

std::unique_ptr<Workload> MakeMixedTxn(const std::string& data_dir) {
  return std::make_unique<MixedTxn>(data_dir);
}

}  // namespace sqlbench
