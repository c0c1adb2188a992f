// Copyright 2026 The CrackStore Authors
//
// Answer oracles of the SQL benchmark.
//
// PermutationRange: a column holding a permutation of 1..N has exactly one
// row per value, so a range aggregate has a closed form — COUNT is the
// width of [lo, hi] clipped to [1, N], SUM an arithmetic series, MIN/MAX
// the clipped bounds. The `explore` workload checks every aggregate
// against it without keeping a second copy of its 160 MB table.
//
// WriteLedger: the arithmetic `mixed_txn` uses to know what the table must
// hold. The workload's client is the only writer, so the ledger is exact:
// a point read or an UPDATE or DELETE by key must see exactly CountOf(key)
// rows, and rows/SUM(c0) follow from the acknowledged writes alone.

#ifndef SQLBENCH_ORACLE_H_
#define SQLBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sqlbench {

struct RangeAggregates {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< valid when count > 0
  int64_t max = 0;  ///< valid when count > 0
};

/// Aggregates of the values in [lo, hi] of a permutation of 1..n.
inline RangeAggregates PermutationRange(int64_t n, int64_t lo, int64_t hi) {
  RangeAggregates a;
  const int64_t b = std::max<int64_t>(lo, 1);
  const int64_t e = std::min<int64_t>(hi, n);
  if (b > e) return a;
  a.count = static_cast<uint64_t>(e - b + 1);
  a.sum = (b + e) * (e - b + 1) / 2;
  a.min = b;
  a.max = e;
  return a;
}

/// Model of one writer's keys over a table whose c0 starts as a
/// permutation of 1..initial_keys (one row per key). Writes are applied as
/// they are acknowledged inside a transaction and undone if it rolls back.
class WriteLedger {
 public:
  explicit WriteLedger(int64_t initial_keys) : initial_keys_(initial_keys) {}

  /// Rows whose c0 is `key` in the current state.
  uint64_t CountOf(int64_t key) const {
    auto it = counts_.find(key);
    if (it != counts_.end()) return it->second;
    return key >= 1 && key <= initial_keys_ ? 1 : 0;
  }

  /// INSERT of one row (c0 = key); `values` user values written.
  void Insert(int64_t key, int values) {
    const uint64_t n = CountOf(key);
    Touch(key);
    counts_[key] = n + 1;
    rows_delta_ += 1;
    sum_c0_delta_ += key;
    user_bytes_ += 8 * static_cast<uint64_t>(values);
  }

  /// UPDATE ... SET <one column> WHERE c0 = key touching `rows` rows.
  void Update(uint64_t rows) { user_bytes_ += 8 * rows; }

  /// DELETE ... WHERE c0 = key: every row with that key goes.
  void Delete(int64_t key) {
    const uint64_t n = CountOf(key);
    Touch(key);
    counts_[key] = 0;
    rows_delta_ -= static_cast<int64_t>(n);
    sum_c0_delta_ -= key * static_cast<int64_t>(n);
  }

  /// Starts recording undo information for a transaction.
  void Begin() {
    undo_.clear();
    txn_rows_ = rows_delta_;
    txn_sum_ = sum_c0_delta_;
    txn_bytes_ = user_bytes_;
    in_txn_ = true;
  }
  /// The transaction was acknowledged: keep its writes.
  void Commit() { in_txn_ = false; }
  /// The transaction rolled back: restore the state at Begin().
  void Rollback() {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      if (it->had_entry) {
        counts_[it->key] = it->count;
      } else {
        counts_.erase(it->key);
      }
    }
    undo_.clear();
    rows_delta_ = txn_rows_;
    sum_c0_delta_ = txn_sum_;
    user_bytes_ = txn_bytes_;
    in_txn_ = false;
  }

  int64_t rows_delta() const { return rows_delta_; }
  int64_t sum_c0_delta() const { return sum_c0_delta_; }
  /// Bytes of user values written by acknowledged DML (8 per value).
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  struct Undo {
    int64_t key;
    bool had_entry;
    uint64_t count;
  };

  void Touch(int64_t key) {
    if (!in_txn_) return;
    auto it = counts_.find(key);
    undo_.push_back(it == counts_.end() ? Undo{key, false, 0}
                                        : Undo{key, true, it->second});
  }

  int64_t initial_keys_;
  std::unordered_map<int64_t, uint64_t> counts_;
  int64_t rows_delta_ = 0;
  int64_t sum_c0_delta_ = 0;
  uint64_t user_bytes_ = 0;
  bool in_txn_ = false;
  std::vector<Undo> undo_;
  int64_t txn_rows_ = 0;
  int64_t txn_sum_ = 0;
  uint64_t txn_bytes_ = 0;
};

}  // namespace sqlbench

#endif  // SQLBENCH_ORACLE_H_
