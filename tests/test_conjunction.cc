// Copyright 2026 The CrackStore Authors
//
// Tests for multi-attribute conjunctive selections through the
// AdaptiveStore: each conjunct cracks its own column, the tightest leg's
// oids are the candidate list, and the other legs filter it on base values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/adaptive_store.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Relation> Table(uint64_t n = 3000, uint64_t seed = 31) {
  TapestryOptions opts;
  opts.num_rows = n;
  opts.num_columns = 3;
  opts.seed = seed;
  return *BuildTapestry("R", opts);
}

using ColumnRange = AdaptiveStore::ColumnRange;

/// Base seed of the randomized sessions, overridable for reproduction.
uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

TEST(ConjunctionTest, ValidatesInput) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  EXPECT_TRUE(
      store.SelectConjunction("R", {}).status().IsInvalidArgument());
  EXPECT_TRUE(store
                  .SelectConjunction(
                      "R", {{"zz", RangeBounds::Closed(1, 2)}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(store
                  .SelectConjunction(
                      "X", {{"c0", RangeBounds::Closed(1, 2)}})
                  .status()
                  .IsNotFound());
}

TEST(ConjunctionTest, SingleConjunctDelegatesToSelectRange) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  auto result =
      store.SelectConjunction("R", {{"c0", RangeBounds::Closed(1, 100)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 100u);
}

TEST(ConjunctionTest, CountMatchesNaive) {
  auto rel = Table();
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  RangeBounds r0 = RangeBounds::Closed(1, 1500);
  RangeBounds r1 = RangeBounds::Closed(1000, 2500);

  // Naive row-wise count.
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  uint64_t expected = 0;
  for (size_t i = 0; i < rel->num_rows(); ++i) {
    expected += r0.Contains(c0->Get<int64_t>(i)) &&
                r1.Contains(c1->Get<int64_t>(i));
  }

  auto result = store.SelectConjunction("R", {{"c0", r0}, {"c1", r1}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, expected);
}

TEST(ConjunctionTest, AllStrategiesAgree) {
  auto rel = Table();
  Pcg32 rng(17);
  for (int q = 0; q < 10; ++q) {
    int64_t a0 = rng.NextInRange(1, 2000);
    int64_t a1 = rng.NextInRange(1, 2000);
    std::vector<ColumnRange> conjuncts{
        {"c0", RangeBounds::Closed(a0, a0 + 800)},
        {"c1", RangeBounds::Closed(a1, a1 + 800)},
        {"c2", RangeBounds::AtLeast(500)}};

    uint64_t counts[3];
    int i = 0;
    for (AccessStrategy s : {AccessStrategy::kScan, AccessStrategy::kCrack,
                             AccessStrategy::kSort}) {
      AdaptiveStoreOptions opts;
      opts.strategy = s;
      opts.track_lineage = false;
      AdaptiveStore store(opts);
      ASSERT_TRUE(store.AddTable(rel).ok());
      auto result = store.SelectConjunction("R", conjuncts);
      ASSERT_TRUE(result.ok());
      counts[i++] = result->count;
    }
    EXPECT_EQ(counts[0], counts[1]) << "query " << q;
    EXPECT_EQ(counts[0], counts[2]) << "query " << q;
  }
}

TEST(ConjunctionTest, ViewDeliveryReturnsSortedOids) {
  auto rel = Table();
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto result = store.SelectConjunction(
      "R",
      {{"c0", RangeBounds::Closed(1, 500)}, {"c1", RangeBounds::Closed(1, 500)}},
      Delivery::kView);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scan_oids.size(), result->count);
  EXPECT_TRUE(std::is_sorted(result->scan_oids.begin(),
                             result->scan_oids.end()));
  // Every returned oid satisfies both predicates.
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  for (Oid oid : result->scan_oids) {
    EXPECT_LE(c0->Get<int64_t>(static_cast<size_t>(oid)), 500);
    EXPECT_LE(c1->Get<int64_t>(static_cast<size_t>(oid)), 500);
  }
}

TEST(ConjunctionTest, CracksEveryReferencedColumn) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  ASSERT_TRUE(store
                  .SelectConjunction("R",
                                     {{"c0", RangeBounds::Closed(100, 900)},
                                      {"c1", RangeBounds::Closed(200, 800)}})
                  .ok());
  EXPECT_GT(*store.NumPieces("R", "c0"), 1u);
  EXPECT_GT(*store.NumPieces("R", "c1"), 1u);
  EXPECT_EQ(*store.NumPieces("R", "c2"), 1u);  // untouched column
}

TEST(ConjunctionTest, RepeatConjunctionGetsCheaper) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table(50000)).ok());
  std::vector<ColumnRange> conjuncts{{"c0", RangeBounds::Closed(1000, 5000)},
                                     {"c1", RangeBounds::Closed(2000, 6000)}};
  auto first = store.SelectConjunction("R", conjuncts);
  ASSERT_TRUE(first.ok());
  auto second = store.SelectConjunction("R", conjuncts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->count, second->count);
  // The repeat pays only the intersection, not the cracking.
  EXPECT_EQ(second->io.cracks, 0u);
  EXPECT_LT(second->io.tuples_read, first->io.tuples_read);
}

TEST(ConjunctionTest, EmptyIntersection) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  // c0 small and c0 large can't both hold (same column twice).
  auto result = store.SelectConjunction(
      "R", {{"c0", RangeBounds::AtMost(100)},
            {"c0", RangeBounds::AtLeast(2000)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST(ConjunctionTest, MaterializeUnimplementedHint) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  EXPECT_TRUE(store
                  .SelectConjunction("R",
                                     {{"c0", RangeBounds::Closed(1, 10)},
                                      {"c1", RangeBounds::Closed(1, 10)}},
                                     Delivery::kMaterialize)
                  .status()
                  .IsUnimplemented());
}

// ---------------------------------------------------------------------------
// Randomized parity: candidate-list conjunctions against a brute-force scan.
// ---------------------------------------------------------------------------

/// One row of the oracle: R(c0 int64, c1 int64, c2 int32, s string).
struct ModelRow {
  int64_t c[3];
  std::string s;
  bool live = true;
};

std::string Word(Pcg32* rng) {
  std::string w;
  for (size_t i = 0, len = 1 + rng->NextBounded(3); i < len; ++i) {
    w += static_cast<char>('a' + rng->NextBounded(6));
  }
  return w;
}

/// The access configurations the suite crosses with the store mode: the
/// crack strategy under each policy, plus the scan and sort strategies.
enum class ConjConfig { kStandard, kStochastic, kProgressive, kAuto, kScan,
                        kSort };

const char* ConjConfigName(ConjConfig c) {
  switch (c) {
    case ConjConfig::kStandard: return "standard";
    case ConjConfig::kStochastic: return "stochastic";
    case ConjConfig::kProgressive: return "progressive";
    case ConjConfig::kAuto: return "auto";
    case ConjConfig::kScan: return "scan";
    case ConjConfig::kSort: return "sort";
  }
  return "?";
}

AdaptiveStoreOptions ConjOptions(ConjConfig config, bool concurrent) {
  AdaptiveStoreOptions opts;
  opts.concurrent = concurrent;
  // Inserts stay pending in the path deltas between folds.
  opts.delta_merge.policy = DeltaMergePolicy::kThreshold;
  opts.delta_merge.threshold_fraction = 0.05;
  opts.policy.min_piece_size = 64;
  switch (config) {
    case ConjConfig::kStandard: break;
    case ConjConfig::kStochastic:
      opts.policy.policy = CrackPolicy::kStochastic;
      break;
    case ConjConfig::kProgressive:
      opts.policy.policy = CrackPolicy::kProgressive;
      break;
    case ConjConfig::kAuto: opts.policy.policy = CrackPolicy::kAuto; break;
    case ConjConfig::kScan: opts.strategy = AccessStrategy::kScan; break;
    case ConjConfig::kSort: opts.strategy = AccessStrategy::kSort; break;
  }
  return opts;
}

class ConjunctionParityTest
    : public ::testing::TestWithParam<std::tuple<ConjConfig, bool>> {};

TEST_P(ConjunctionParityTest, RandomizedConjunctionsMatchScan) {
  auto [config, concurrent] = GetParam();
  const uint64_t seed = TestSeed(1531) + static_cast<uint64_t>(config) * 17 +
                        (concurrent ? 5 : 0);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  AdaptiveStore store(ConjOptions(config, concurrent));
  const char* kCols[3] = {"c0", "c1", "c2"};
  const int64_t domain = 1000;
  Pcg32 rng(seed);

  auto rel = *Relation::Create("R", Schema({{"c0", ValueType::kInt64},
                                            {"c1", ValueType::kInt64},
                                            {"c2", ValueType::kInt32},
                                            {"s", ValueType::kString}}));
  auto random_row = [&] {
    ModelRow row;
    for (int64_t& v : row.c) v = rng.NextInRange(1, domain);
    row.s = Word(&rng);
    return row;
  };
  auto row_values = [](const ModelRow& row) {
    return std::vector<Value>{Value(row.c[0]), Value(row.c[1]),
                              Value(static_cast<int32_t>(row.c[2])),
                              Value(row.s)};
  };
  // `committed` is what auto-commit statements read; `mine` is what the
  // open transaction reads (its own writes on top of its snapshot).
  std::vector<ModelRow> committed;
  for (int i = 0; i < 1500; ++i) {
    committed.push_back(random_row());
    ASSERT_TRUE(rel->AppendRow(row_values(committed.back())).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  std::vector<ModelRow> mine;
  TxnId txn = kNoTxn;
  size_t txn_first_insert = 0;

  // A leg: tight, wide (sometimes one-sided), empty, on a string, or on
  // the column of the previous leg.
  auto random_leg = [&](const std::vector<ColumnRange>& so_far) {
    const uint32_t dice = rng.NextBounded(100);
    const std::string col = kCols[rng.NextBounded(3)];
    const int64_t lo = rng.NextInRange(-10, domain);
    if (dice < 30) {
      return ColumnRange{col, RangeBounds::Closed(lo, lo + rng.NextInRange(0, 15))};
    }
    if (dice < 62) {
      const int64_t w = rng.NextInRange(300, domain);
      switch (rng.NextBounded(4)) {
        case 0: return ColumnRange{col, RangeBounds::AtLeast(lo)};
        case 1: return ColumnRange{col, RangeBounds::LessThan(lo + w)};
        case 2: return ColumnRange{col, RangeBounds::Open(lo, lo + w)};
        default: return ColumnRange{col, RangeBounds::Closed(lo, lo + w)};
      }
    }
    if (dice < 70) {
      return rng.NextBounded(2) == 0
                 ? ColumnRange{col, RangeBounds::Closed(domain + 50, domain + 90)}
                 : ColumnRange{col, RangeBounds::Closed(lo + 5, lo)};
    }
    const std::string same = so_far.empty() ? col : so_far.back().column;
    if (dice < 85 || same == "s") {
      std::string a = Word(&rng), b = Word(&rng);
      if (b < a) std::swap(a, b);
      return ColumnRange{"s", TypedRange::Closed(Value(a), Value(b))};
    }
    return ColumnRange{same, RangeBounds::Closed(lo, lo + rng.NextInRange(0, 600))};
  };
  auto matches = [&](const ModelRow& row, const std::vector<ColumnRange>& legs) {
    for (const ColumnRange& leg : legs) {
      if (leg.column == "s") {
        if (!leg.range.Contains(std::string_view(row.s))) return false;
      } else if (!leg.range.Contains(row.c[leg.column[1] - '0'])) {
        return false;
      }
    }
    return true;
  };
  // A band on c0 — the WHERE of the suite's DML, up to a fifth of it.
  auto band = [&](int64_t max_width) {
    const int64_t lo = rng.NextInRange(1, domain);
    return ColumnRange{
        "c0", RangeBounds::Closed(lo, lo + rng.NextInRange(0, max_width))};
  };

  // The WHERE of the suite's DML: a c0 band, half the time narrowed by a
  // second leg, so victim sets also come from candidate lists.
  auto dml_where = [&](int64_t max_width) {
    std::vector<ColumnRange> where{band(max_width)};
    if (rng.NextBounded(2) == 0) where.push_back(random_leg(where));
    return where;
  };

  uint64_t deleted_since_vacuum = 0;
  for (int op = 0; op < 220; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const uint32_t dice = rng.NextBounded(100);
    // Reads go through the open transaction half the time.
    const bool in_txn = txn != kNoTxn && rng.NextBounded(2) == 0;
    const std::vector<ModelRow>& view_rows = in_txn ? mine : committed;
    const TxnId read_txn = in_txn ? txn : kNoTxn;
    if (dice < 50) {
      std::vector<ColumnRange> legs;
      for (size_t i = 0, n = 2 + rng.NextBounded(2); i < n; ++i) {
        legs.push_back(random_leg(legs));
      }
      std::vector<Oid> want;
      int64_t want_sum = 0;
      for (size_t i = 0; i < view_rows.size(); ++i) {
        if (!view_rows[i].live || !matches(view_rows[i], legs)) continue;
        want.push_back(static_cast<Oid>(i));
        want_sum += view_rows[i].c[1];
      }
      auto counted = store.SelectConjunction("R", legs, Delivery::kCount,
                                             read_txn);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      ASSERT_EQ(counted->count, want.size());
      auto viewed = store.SelectConjunction("R", legs, Delivery::kView,
                                            read_txn);
      ASSERT_TRUE(viewed.ok()) << viewed.status().ToString();
      ASSERT_EQ(viewed->count, want.size());
      ASSERT_EQ(viewed->CollectOids(), want);
      auto summed = store.AggregateWhere("R", "c1", legs, read_txn);
      ASSERT_TRUE(summed.ok()) << summed.status().ToString();
      ASSERT_EQ(summed->rows, want.size());
      ASSERT_EQ(summed->sum, want_sum);
    } else if (dice < 58) {
      // Single-leg and WHERE-less aggregates: on another column (candidate
      // list) and on the aggregated column itself (pushdown, or its
      // fallback).
      std::vector<ColumnRange> where;
      if (rng.NextBounded(4) != 0) where.push_back(band(40));
      for (const char* agg : {"c1", "c0"}) {
        int64_t want_sum = 0;
        uint64_t want_rows = 0;
        for (const ModelRow& row : view_rows) {
          if (!row.live || !matches(row, where)) continue;
          want_sum += row.c[agg[1] - '0'];
          ++want_rows;
        }
        auto summed = store.AggregateWhere("R", agg, where, read_txn);
        ASSERT_TRUE(summed.ok()) << summed.status().ToString();
        ASSERT_EQ(summed->rows, want_rows) << agg;
        ASSERT_EQ(summed->sum, want_sum) << agg;
      }
    } else if (dice < 66 && txn == kNoTxn) {
      txn = *store.Begin();
      mine = committed;
      txn_first_insert = committed.size();
    } else if (dice < 70 && txn != kNoTxn) {
      // Vacuum purges the rows a commit deleted and every row a rollback
      // (or a delete of its own) leaves the transaction's inserts dead in.
      const bool commit = rng.NextBounded(3) != 0;
      ASSERT_TRUE(commit ? store.Commit(txn).ok() : store.Rollback(txn).ok());
      for (size_t i = 0; i < committed.size(); ++i) {
        const bool inserted = i >= txn_first_insert;
        deleted_since_vacuum +=
            commit ? (inserted || committed[i].live) && !mine[i].live
                   : inserted;
      }
      if (commit) committed = mine;
      txn = kNoTxn;
    } else {
      // DML: the open transaction writes alone; otherwise auto-commit.
      std::vector<ModelRow>& target = txn != kNoTxn ? mine : committed;
      const uint32_t kind = rng.NextBounded(10);
      if (kind < 4) {
        ModelRow row = random_row();
        auto qr = store.Insert("R", row_values(row), txn);
        ASSERT_TRUE(qr.ok()) << qr.status().ToString();
        ASSERT_EQ(qr->inserted_oid, static_cast<Oid>(committed.size()));
        ModelRow hidden = row;
        hidden.live = txn == kNoTxn;
        committed.push_back(hidden);
        if (txn != kNoTxn) mine.push_back(row);
      } else if (kind < 6) {
        const std::vector<ColumnRange> where = dml_where(8);
        auto qr = store.Delete("R", where, txn);
        ASSERT_TRUE(qr.ok()) << qr.status().ToString();
        uint64_t want = 0;
        for (ModelRow& row : target) {
          if (!row.live || !matches(row, where)) continue;
          row.live = false;
          ++want;
        }
        ASSERT_EQ(qr->count, want);
        if (txn == kNoTxn) deleted_since_vacuum += want;
      } else {
        // UPDATE a non-driving column of a c0 band: the open transaction's
        // rewrites are overrides for every auto-commit read.
        const std::vector<ColumnRange> where = dml_where(200);
        const int c = 1 + static_cast<int>(rng.NextBounded(3));  // c1, c2, s
        const int64_t v = rng.NextInRange(1, domain);
        const std::string w = Word(&rng);
        const AdaptiveStore::Assignment set =
            c == 3 ? AdaptiveStore::Assignment{"s", Value(w)}
            : c == 2 ? AdaptiveStore::Assignment{"c2",
                                                 Value(static_cast<int32_t>(v))}
                     : AdaptiveStore::Assignment{"c1", Value(v)};
        auto qr = store.Update("R", {set}, where, txn);
        ASSERT_TRUE(qr.ok()) << qr.status().ToString();
        uint64_t want = 0;
        for (ModelRow& row : target) {
          if (!row.live || !matches(row, where)) continue;
          if (c == 3) {
            row.s = w;
          } else {
            row.c[c] = v;
          }
          ++want;
        }
        ASSERT_EQ(qr->count, want);
      }
    }
    if (op % 25 == 24 && txn == kNoTxn) {
      auto vacuumed = store.Vacuum();
      ASSERT_TRUE(vacuumed.ok()) << vacuumed.status().ToString();
      ASSERT_EQ(vacuumed->rows_purged, deleted_since_vacuum);
      deleted_since_vacuum = 0;
    }
    Status verified = store.Verify();
    ASSERT_TRUE(verified.ok()) << verified.ToString();
  }
  if (txn != kNoTxn) {
    ASSERT_TRUE(store.Rollback(txn).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigByMode, ConjunctionParityTest,
    ::testing::Combine(
        ::testing::Values(ConjConfig::kStandard, ConjConfig::kStochastic,
                          ConjConfig::kProgressive, ConjConfig::kAuto,
                          ConjConfig::kScan, ConjConfig::kSort),
        ::testing::Bool()),
    [](const auto& info) {
      return std::string(ConjConfigName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_concurrent" : "");
    });

}  // namespace
}  // namespace crackstore
