// Copyright 2026 The CrackStore Authors
//
// ColumnEngine: the binary-relational engine stand-in (MonetDB class in the
// paper's experiments). Operator-at-a-time execution over whole BATs —
// tight typed loops, no per-tuple virtual calls — which is why its lines in
// Figs. 1 and 9 stay flat where the row engines climb. Range selections are
// served by the per-column ColumnAccessPath layer (core/access_path.h): the
// default configuration scans (the paper's MonetDB baseline), but the same
// engine runs cracked or sorted access — the cracking module plugs in
// underneath exactly as the paper's MonetDB module does. It is a read-only
// reference engine for Figs. 1 and 9: writes, transactions and snapshots
// live in AdaptiveStore.

#ifndef CRACKSTORE_ENGINE_COLSTORE_ENGINE_H_
#define CRACKSTORE_ENGINE_COLSTORE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/access_path.h"
#include "core/range_bounds.h"
#include "engine/rowstore_engine.h"  // RunResult
#include "engine/sinks.h"
#include "storage/relation.h"
#include "util/result.h"

namespace crackstore {

/// Engine-wide knobs.
struct ColumnEngineOptions {
  double statement_deadline_seconds = 0.0;  ///< 0 = no deadline
  /// Per-column physical access. kScan reproduces the paper's MonetDB
  /// baseline; kCrack turns the engine adaptive (policy selects the pivot
  /// discipline).
  AccessStrategy strategy = AccessStrategy::kScan;
  CrackPolicyOptions policy;
  MergeBudget merge_budget;

  /// The per-column slice of these options. The engine never writes, so
  /// the delta-merge knobs keep their defaults.
  AccessPathConfig path_config() const {
    return AccessPathConfig{strategy, policy, merge_budget,
                            DeltaMergeOptions{}};
  }
};

/// See file comment.
class ColumnEngine {
 public:
  explicit ColumnEngine(ColumnEngineOptions options = {});
  CRACK_DISALLOW_COPY_AND_ASSIGN(ColumnEngine);

  /// Registers a column table.
  Status AddTable(std::shared_ptr<Relation> relation);

  Result<std::shared_ptr<Relation>> table(const std::string& name) const;

  /// SELECT ... WHERE column IN range through the column's access path,
  /// delivered per `mode` (Fig. 1's MonetDB line). The predicate is typed
  /// (numeric RangeBounds convert implicitly; string endpoints reach
  /// dictionary-encoded string columns). Materialization gathers
  /// column-at-a-time.
  Result<RunResult> RunSelect(const std::string& table,
                              const std::string& column,
                              const TypedRange& range, DeliveryMode mode,
                              const std::string& result_name = "tmp_result");

  /// k-way linear chain join (Fig. 9), BAT-at-a-time: per step one hash
  /// build over the next table's `in_col` and one probe of the current
  /// frontier; result cardinality is tracked exactly via multiplicities.
  Result<RunResult> RunChainJoin(const std::vector<std::string>& tables,
                                 const std::string& out_col,
                                 const std::string& in_col,
                                 DeliveryMode mode = DeliveryMode::kCount);

  /// One leg of a RunSelectCountBatch.
  struct SelectSpec {
    std::string table;
    std::string column;
    TypedRange range;
  };

  /// Evaluates many independent count-selections, fanning legs over the
  /// global TaskPool. Legs over *distinct* columns run concurrently (each
  /// leg touches only its own access path); legs sharing a column are
  /// chained into one task, because the engine keeps its paths serial (no
  /// per-column latches — that protocol lives in AdaptiveStore). Paths are
  /// created up front on the calling thread. Returns per-leg counts in spec
  /// order.
  Result<std::vector<uint64_t>> RunSelectCountBatch(
      const std::vector<SelectSpec>& specs);

  /// The materialized result of the last kMaterialize select.
  const std::shared_ptr<Relation>& last_result() const { return last_result_; }

 private:
  /// The access path of (table, column), created on first touch.
  Result<ColumnAccessPath*> PathFor(const std::string& table,
                                    const std::string& column,
                                    const std::shared_ptr<Bat>& bat);

  ColumnEngineOptions options_;
  std::map<std::string, std::shared_ptr<Relation>> tables_;
  std::map<std::string, std::unique_ptr<ColumnAccessPath>> paths_;
  std::shared_ptr<Relation> last_result_;
};

}  // namespace crackstore

#endif  // CRACKSTORE_ENGINE_COLSTORE_ENGINE_H_
