// Copyright 2026 The CrackStore Authors

#include "sql/executor.h"

#include <algorithm>
#include <utility>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace crackstore {
namespace sql {

namespace {

Result<AggKind> ToAggKind(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return AggKind::kCount;
    case AggFunc::kSum:
      return AggKind::kSum;
    case AggFunc::kMin:
      return AggKind::kMin;
    case AggFunc::kMax:
      return AggKind::kMax;
    case AggFunc::kNone:
      break;
  }
  return Status::InvalidArgument("not an aggregate");
}

/// Rewrites parsed predicates into the facade's conjunct shape.
std::vector<AdaptiveStore::ColumnRange> ToConjuncts(
    const std::vector<Predicate>& where) {
  std::vector<AdaptiveStore::ColumnRange> conjuncts;
  conjuncts.reserve(where.size());
  for (const Predicate& p : where) {
    conjuncts.push_back({p.column, p.range});
  }
  return conjuncts;
}

/// Collects the qualifying oids of a WHERE clause. Every predicate routes
/// through the referenced column's access path (cracking it under the crack
/// strategy); the answer shape (contiguous piece vs oid list) is erased by
/// QueryResult::CollectOids.
Result<std::vector<Oid>> WhereOids(AdaptiveStore* store,
                                   const std::string& table,
                                   const std::vector<Predicate>& where,
                                   TxnId txn, IoStats* io) {
  CRACK_ASSIGN_OR_RETURN(
      QueryResult qr,
      store->SelectConjunction(table, ToConjuncts(where), Delivery::kView,
                               txn));
  *io += qr.io;
  return std::move(qr).CollectOids();
}

}  // namespace

Result<QueryOutput> Execute(AdaptiveStore* store, const SelectStatement& stmt,
                            TxnId txn) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  QueryOutput out;
  WallTimer timer;
  obs::TraceSpan stmt_span("select-stmt", stmt.table, &out.io);
  // Planning here is statement-shape dispatch plus name resolution; the
  // span closes right before the first store call of the chosen path.
  obs::TraceSpan plan_span("plan", stmt.table);

  // --- GROUP BY: the Ω cracker path. ---------------------------------
  if (stmt.group_by.has_value()) {
    if (!stmt.where.empty() || stmt.join.has_value()) {
      return Status::Unimplemented(
          "GROUP BY with WHERE/JOIN is not supported by this subset");
    }
    AggKind kind = AggKind::kCount;
    std::string agg_column = *stmt.group_by;
    if (stmt.count_star) {
      // COUNT(*) per group.
    } else {
      if (stmt.items.size() != 1 || stmt.items[0].agg == AggFunc::kNone) {
        return Status::Unimplemented(
            "GROUP BY needs exactly one aggregate select item (or "
            "COUNT(*))");
      }
      CRACK_ASSIGN_OR_RETURN(kind, ToAggKind(stmt.items[0].agg));
      agg_column = stmt.items[0].column;
    }
    plan_span.Close();
    CRACK_ASSIGN_OR_RETURN(
        out.groups, store->GroupBy(stmt.table, *stmt.group_by, agg_column,
                                   kind, txn));
    out.kind = OutputKind::kGroups;
    out.count = out.groups.size();
    out.group_column = *stmt.group_by;
    out.agg_description =
        stmt.count_star
            ? "count(*)"
            : StrFormat("%s(%s)", AggFuncName(stmt.items[0].agg),
                        agg_column.c_str());
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // --- JOIN: the ^ cracker path. --------------------------------------
  if (stmt.join.has_value()) {
    if (!stmt.count_star) {
      return Status::Unimplemented("JOIN supports COUNT(*) delivery only");
    }
    if (!stmt.where.empty()) {
      return Status::Unimplemented("JOIN with WHERE is not supported");
    }
    const JoinClause& join = *stmt.join;
    // Resolve which qualifier names which operand.
    std::string lt = join.left_table, lc = join.left_column;
    std::string rt = join.right_table, rc = join.right_column;
    if (lt == join.table && rt == stmt.table) {
      std::swap(lt, rt);
      std::swap(lc, rc);
    }
    if (lt != stmt.table || rt != join.table) {
      return Status::InvalidArgument(
          "join condition must reference both joined tables");
    }
    plan_span.Close();
    CRACK_ASSIGN_OR_RETURN(
        QueryResult qr,
        store->JoinEquals(lt, lc, rt, rc, Delivery::kCount, txn));
    out.kind = OutputKind::kCount;
    out.count = qr.count;
    out.io += qr.io;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // --- Plain selection: the Ξ cracker path. ----------------------------
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel,
                         store->table(stmt.table));

  // COUNT(*).
  if (stmt.count_star) {
    plan_span.Close();
    if (stmt.where.empty()) {
      CRACK_ASSIGN_OR_RETURN(out.count, store->LiveRowCount(stmt.table, txn));
    } else if (stmt.where.size() == 1) {
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->SelectRange(stmt.table, stmt.where[0].column,
                             stmt.where[0].range, Delivery::kCount, txn));
      out.count = qr.count;
      out.io += qr.io;
    } else {
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->SelectConjunction(stmt.table, ToConjuncts(stmt.where),
                                   Delivery::kCount, txn));
      out.count = qr.count;
      out.io += qr.io;
    }
    out.kind = OutputKind::kCount;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Single aggregate without GROUP BY: SELECT SUM(c) FROM t [WHERE ...].
  if (stmt.items.size() == 1 && stmt.items[0].agg != AggFunc::kNone) {
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> agg_col,
                           rel->column(stmt.items[0].column));
    if (agg_col->tail_type() != ValueType::kInt64 &&
        agg_col->tail_type() != ValueType::kInt32) {
      return Status::Unimplemented("aggregates need integer columns");
    }
    plan_span.Close();
    // One store call: pushdown over the cracked spans when the WHERE names
    // only the aggregated column, else a reduction over the WHERE's
    // candidate-list survivors, with the values the snapshot reads.
    CRACK_ASSIGN_OR_RETURN(
        ColumnAggregates agg,
        store->AggregateWhere(stmt.table, stmt.items[0].column,
                              ToConjuncts(stmt.where), txn));
    int64_t acc = 0;
    switch (stmt.items[0].agg) {
      case AggFunc::kCount:
        acc = static_cast<int64_t>(agg.rows);
        break;
      case AggFunc::kSum:
        acc = agg.sum;
        break;
      case AggFunc::kMin:
        acc = agg.has_minmax ? agg.min : 0;
        break;
      case AggFunc::kMax:
        acc = agg.has_minmax ? agg.max : 0;
        break;
      case AggFunc::kNone:
        break;
    }
    out.io += agg.io;
    out.kind = OutputKind::kGroups;  // a single (global, value) row
    out.groups.push_back(GroupAggregate{0, acc});
    out.count = 1;
    out.group_column = "<all>";
    out.agg_description = StrFormat("%s(%s)", AggFuncName(stmt.items[0].agg),
                                    stmt.items[0].column.c_str());
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // SELECT * / SELECT cols: materialize qualifying rows.
  std::vector<std::string> projection;
  if (!stmt.select_star) {
    for (const SelectItem& item : stmt.items) {
      if (item.agg != AggFunc::kNone) {
        return Status::Unimplemented(
            "mixing aggregates and plain columns needs GROUP BY");
      }
      projection.push_back(item.column);
    }
  }
  plan_span.Close();
  std::vector<Oid> oids;
  if (stmt.where.empty()) {
    CRACK_ASSIGN_OR_RETURN(oids, store->LiveOids(stmt.table, txn));
  } else {
    CRACK_ASSIGN_OR_RETURN(
        oids, WhereOids(store, stmt.table, stmt.where, txn, &out.io));
  }
  {
    obs::TraceSpan mat_span("materialize", stmt.table, &out.io);
    CRACK_ASSIGN_OR_RETURN(
        out.rows,
        store->MaterializeRows(stmt.table, oids, projection, txn, &out.io));
  }
  out.kind = OutputKind::kRows;
  out.count = out.rows->num_rows();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<QueryOutput> Execute(AdaptiveStore* store, const Statement& stmt,
                            TxnId txn) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return Execute(store, stmt.select, txn);
    case StatementKind::kInsert: {
      QueryOutput out;
      // Literals arrive typed from the parser; the store coerces numerics
      // to the column widths and routes strings through the dictionary.
      std::vector<Value> row = stmt.insert.values;
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->Insert(stmt.insert.table, std::move(row), txn));
      out.kind = OutputKind::kAffected;
      out.count = qr.count;
      out.io += qr.io;
      out.seconds = qr.seconds;
      return out;
    }
    case StatementKind::kDelete: {
      QueryOutput out;
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->Delete(stmt.del.table, ToConjuncts(stmt.del.where), txn));
      out.kind = OutputKind::kAffected;
      out.count = qr.count;
      out.io += qr.io;
      out.seconds = qr.seconds;
      return out;
    }
    case StatementKind::kUpdate: {
      QueryOutput out;
      std::vector<AdaptiveStore::Assignment> sets;
      sets.reserve(stmt.update.sets.size());
      for (const SetClause& s : stmt.update.sets) {
        sets.push_back({s.column, s.value});
      }
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->Update(stmt.update.table, sets,
                        ToConjuncts(stmt.update.where), txn));
      out.kind = OutputKind::kAffected;
      out.count = qr.count;
      out.io += qr.io;
      out.seconds = qr.seconds;
      return out;
    }
    case StatementKind::kVacuum: {
      QueryOutput out;
      CRACK_ASSIGN_OR_RETURN(AdaptiveStore::VacuumStats stats,
                             store->Vacuum());
      out.kind = OutputKind::kTxn;
      out.count = stats.rows_purged;
      out.message = StrFormat(
          "VACUUM: purged %llu row version(s), folded %llu stamp(s), "
          "dropped %llu superseded value(s) below ts %llu",
          static_cast<unsigned long long>(stats.rows_purged),
          static_cast<unsigned long long>(stats.versions_dropped),
          static_cast<unsigned long long>(stats.chain_entries_dropped),
          static_cast<unsigned long long>(stats.low_water));
      return out;
    }
    case StatementKind::kCheckpoint: {
      QueryOutput out;
      CRACK_RETURN_NOT_OK(store->Checkpoint());
      out.kind = OutputKind::kTxn;
      out.count = store->checkpoints_taken();
      out.message = StrFormat(
          "CHECKPOINT: base snapshot written (%llu this session), commit "
          "log truncated",
          static_cast<unsigned long long>(store->checkpoints_taken()));
      return out;
    }
    case StatementKind::kExplainAnalyze: {
      if (!stmt.explain_inner) {
        return Status::InvalidArgument("EXPLAIN ANALYZE without a statement");
      }
      obs::QueryTrace trace;
      if (stmt.parse_seconds > 0.0) {
        trace.AddCompletedSpan("parse", stmt.parse_seconds);
      }
      WallTimer timer;
      QueryOutput inner;
      {
        obs::TraceBinding bind(&trace);
        CRACK_ASSIGN_OR_RETURN(inner, Execute(store, *stmt.explain_inner,
                                              txn));
      }
      const double seconds = timer.ElapsedSeconds();
      // Keep the inner statement's count/io/rows so callers (and tests) can
      // cross-check the report against the store's own introspection.
      QueryOutput out = std::move(inner);
      out.kind = OutputKind::kTxn;
      out.message = trace.Render(out.io, seconds);
      out.seconds = seconds;
      return out;
    }
    case StatementKind::kShowStats: {
      QueryOutput out;
      out.kind = OutputKind::kTxn;
      out.message = RenderStats(stmt.show_stats_pattern);
      out.count = obs::MetricsRegistry::Global()
                      .Rows(stmt.show_stats_pattern)
                      .size();
      return out;
    }
    case StatementKind::kSetPolicy: {
      QueryOutput out;
      CrackPolicyOptions opts = store->options().policy;
      if (!ParseCrackPolicy(stmt.set_policy_name, &opts.policy)) {
        return Status::InvalidArgument(StrFormat(
            "unknown policy '%s' (use standard, stochastic, coarse, auto "
            "or progressive)",
            stmt.set_policy_name.c_str()));
      }
      if (stmt.set_policy_budget >= 0.0) {
        if (stmt.set_policy_budget <= 0.0 || stmt.set_policy_budget > 1.0) {
          return Status::InvalidArgument("BUDGET must be in (0, 1]");
        }
        opts.progressive_budget = stmt.set_policy_budget;
      }
      CRACK_RETURN_NOT_OK(store->SetPolicy(opts));
      out.kind = OutputKind::kTxn;
      out.message = StrFormat("SET POLICY: %s (budget %.3f)",
                              CrackPolicyName(opts.policy),
                              opts.progressive_budget);
      return out;
    }
    case StatementKind::kShowPolicy: {
      QueryOutput out;
      out.kind = OutputKind::kTxn;
      std::vector<AdaptiveStore::ColumnPolicy> report = store->PolicyReport();
      out.count = report.size();
      if (report.empty()) {
        out.message = "no column accelerators yet (nothing queried)";
        return out;
      }
      TablePrinter table;
      table.SetHeader({"table", "column", "policy", "effective", "pattern",
                       "switches", "samples", "pending"});
      for (const AdaptiveStore::ColumnPolicy& row : report) {
        const PathPolicyStatus& s = row.status;
        table.AddRow({row.table, row.column, CrackPolicyName(s.configured),
                      s.crack ? CrackPolicyName(s.effective) : "-",
                      WorkloadPatternName(s.pattern),
                      std::to_string(s.switches), std::to_string(s.samples),
                      std::to_string(s.progressive_pending)});
      }
      out.message = table.RenderAligned();
      return out;
    }
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return Status::InvalidArgument(
          "transaction control needs a SqlSession (the stateless entry "
          "point is auto-commit only)");
  }
  return Status::InvalidArgument("unknown statement kind");
}

Result<QueryOutput> Execute(AdaptiveStore* store, const Statement& stmt,
                            const obs::ExecContext& ctx, TxnId txn) {
  obs::TraceBinding bind(ctx.trace);
  if (ctx.trace != nullptr && stmt.parse_seconds > 0.0) {
    ctx.trace->AddCompletedSpan("parse", stmt.parse_seconds);
  }
  return Execute(store, stmt, txn);
}

std::string RenderStats(const std::string& pattern) {
  TablePrinter table;
  table.SetHeader({"instrument", "type", "value"});
  for (const obs::MetricRow& row :
       obs::MetricsRegistry::Global().Rows(pattern)) {
    table.AddRow({row[0], row[1], row[2]});
  }
  if (table.num_rows() == 0) {
    return pattern.empty()
               ? std::string("no instruments registered\n")
               : StrFormat("no instruments match '%s'\n", pattern.c_str());
  }
  return table.RenderAligned();
}

Result<QueryOutput> ExecuteSql(AdaptiveStore* store,
                               const std::string& statement) {
  CRACK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  obs::RecordSqlStatement();
  return Execute(store, stmt);
}

Result<QueryOutput> SqlSession::ExecuteSql(const std::string& statement) {
  CRACK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  obs::RecordSqlStatement();
  return Execute(stmt);
}

Result<QueryOutput> SqlSession::ExecuteSql(const std::string& statement,
                                           const obs::ExecContext& ctx) {
  CRACK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  obs::RecordSqlStatement();
  obs::TraceBinding bind(ctx.trace);
  if (ctx.trace != nullptr && stmt.parse_seconds > 0.0) {
    ctx.trace->AddCompletedSpan("parse", stmt.parse_seconds);
  }
  return Execute(stmt);
}

Result<QueryOutput> SqlSession::Execute(const Statement& stmt) {
  if (store_ == nullptr) return Status::InvalidArgument("null store");
  QueryOutput out;
  out.kind = OutputKind::kTxn;
  switch (stmt.kind) {
    case StatementKind::kBegin: {
      if (in_txn()) {
        return Status::InvalidArgument(
            StrFormat("already in transaction %llu (COMMIT or ROLLBACK "
                      "first)",
                      static_cast<unsigned long long>(txn_)));
      }
      CRACK_ASSIGN_OR_RETURN(txn_, store_->Begin());
      out.message = StrFormat("BEGIN: transaction %llu at snapshot ts %llu",
                              static_cast<unsigned long long>(txn_),
                              static_cast<unsigned long long>(
                                  store_->txn_manager().last_commit_ts()));
      return out;
    }
    case StatementKind::kCommit: {
      if (!in_txn()) {
        return Status::InvalidArgument("no open transaction to COMMIT");
      }
      TxnId finished = txn_;
      txn_ = kNoTxn;  // the transaction ends either way
      CRACK_RETURN_NOT_OK(store_->Commit(finished));
      out.message = StrFormat("COMMIT: transaction %llu",
                              static_cast<unsigned long long>(finished));
      return out;
    }
    case StatementKind::kRollback: {
      if (!in_txn()) {
        return Status::InvalidArgument("no open transaction to ROLLBACK");
      }
      TxnId finished = txn_;
      txn_ = kNoTxn;
      CRACK_RETURN_NOT_OK(store_->Rollback(finished));
      out.message = StrFormat("ROLLBACK: transaction %llu",
                              static_cast<unsigned long long>(finished));
      return out;
    }
    default:
      return sql::Execute(store_, stmt, txn_);
  }
}

Status SqlSession::Close() {
  if (!in_txn()) return Status::OK();
  TxnId finished = txn_;
  txn_ = kNoTxn;
  return store_->Rollback(finished);
}

std::string FormatOutput(const QueryOutput& output, size_t max_rows) {
  std::string out;
  switch (output.kind) {
    case OutputKind::kCount:
      out = StrFormat("count: %llu\n",
                      static_cast<unsigned long long>(output.count));
      break;
    case OutputKind::kAffected:
      out = StrFormat("%llu row(s) affected\n",
                      static_cast<unsigned long long>(output.count));
      break;
    case OutputKind::kTxn:
      out = output.message + "\n";
      break;
    case OutputKind::kGroups: {
      out = StrFormat("%s | %s\n", output.group_column.c_str(),
                      output.agg_description.c_str());
      size_t shown = 0;
      for (const GroupAggregate& g : output.groups) {
        if (++shown > max_rows) {
          out += StrFormat("... (%zu groups)\n", output.groups.size());
          break;
        }
        out += StrFormat("%lld | %lld\n", static_cast<long long>(g.group),
                         static_cast<long long>(g.value));
      }
      break;
    }
    case OutputKind::kRows: {
      const Relation& rel = *output.rows;
      out = rel.schema().ToString() + "\n";
      size_t limit = std::min(max_rows, rel.num_rows());
      for (size_t i = 0; i < limit; ++i) {
        std::vector<std::string> cells;
        for (const Value& v : rel.GetRow(i)) cells.push_back(v.ToString());
        out += StrJoin(cells, " | ") + "\n";
      }
      if (rel.num_rows() > limit) {
        out += StrFormat("... (%zu rows)\n", rel.num_rows());
      }
      break;
    }
  }
  out += StrFormat("(%.3f ms)\n", output.seconds * 1e3);
  return out;
}

}  // namespace sql
}  // namespace crackstore
