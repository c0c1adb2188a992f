// Copyright 2026 The CrackStore Authors
//
// Workload `explore`: one client on the default store (DbOptions{}: serial,
// standard crack policy, in-memory) over R(c0, c1), 10M rows of int64
// permutations of 1..N — 160 MB of base data, larger than a 105 MiB L3.
//
// The stream is back-to-back query sequences in the user profiles of the
// paper's §4: homerun (nested zoom-in onto a target window), hiking (a
// fixed-width window sliding onto the target) and strolling (independent
// random windows). Each sequence stays on one column; its statements are
// COUNT(*)/SUM/MIN/MAX over that column with selectivity log-uniform in
// 1e-5..1e-2, and about one in ten is a row fetch of at most 16 rows.
// Cracking, span answers and aggregate pushdown do the work here;
// intersection, transactions, the WAL and latches do none.
//
// Answers are checked against the closed form of a permutation; fetched
// rows are checked row by row against the generated columns.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "rng.h"

namespace sqlbench {
namespace {

constexpr int64_t kRows = 10'000'000;
// Long enough that per-statement cost growing with the number of cracks
// shows across the deciles, short enough that a round on a store whose
// cost does grow still ends well inside a run.
constexpr size_t kStmtsPerRound = 4000;

enum class Op : uint8_t { kCount, kSum, kMin, kMax, kFetch };

struct Stmt {
  std::string sql;
  Op op;
  int col;
  int64_t lo;
  int64_t hi;
};

std::string Sql(Op op, int col, int64_t lo, int64_t hi) {
  const std::string c = "c" + std::to_string(col);
  const std::string where = " FROM R WHERE " + c + " BETWEEN " +
                            std::to_string(lo) + " AND " + std::to_string(hi);
  switch (op) {
    case Op::kCount:
      return "SELECT COUNT(*)" + where;
    case Op::kSum:
      return "SELECT SUM(" + c + ")" + where;
    case Op::kMin:
      return "SELECT MIN(" + c + ")" + where;
    case Op::kMax:
      return "SELECT MAX(" + c + ")" + where;
    case Op::kFetch:
      break;
  }
  return "SELECT *" + where;
}

int64_t Width(Rng* rng) {
  const double frac = rng->LogUniform(1e-5, 1e-2);
  return std::max<int64_t>(1, std::llround(static_cast<double>(kRows) * frac));
}

// Appends one statement over window [lo, hi] of `col`: a row fetch one time
// in ten (first <= 16 rows of the window), else a random aggregate.
void Emit(Rng* rng, int col, int64_t lo, int64_t hi, std::vector<Stmt>* out) {
  lo = std::max<int64_t>(lo, 1);
  hi = std::min<int64_t>(hi, kRows);
  Op op;
  if (rng->Below(10) == 0) {
    op = Op::kFetch;
    hi = std::min<int64_t>(hi, lo + rng->Between(0, 15));
  } else {
    op = static_cast<Op>(rng->Below(4));
  }
  out->push_back({Sql(op, col, lo, hi), op, col, lo, hi});
}

std::vector<Stmt> MakeStream(uint64_t seed) {
  Rng rng(seed);
  std::vector<Stmt> out;
  out.reserve(kStmtsPerRound + 32);
  while (out.size() < kStmtsPerRound) {
    const int col = static_cast<int>(rng.Below(2));
    const int k = static_cast<int>(rng.Between(8, 24));
    switch (rng.Below(3)) {
      case 0: {  // homerun: nested windows contracting onto the target
        const int64_t wt = Width(&rng);
        const int64_t t = rng.Between(1, kRows - wt + 1);
        const int64_t w0 = std::max<int64_t>(wt, kRows / 100);
        const int64_t margin = w0 - wt;
        const int64_t left = static_cast<int64_t>(rng.Below(margin + 1));
        const int64_t right = margin - left;
        for (int i = 0; i < k; ++i) {
          const double w = static_cast<double>(w0) *
                           std::pow(static_cast<double>(wt) / w0,
                                    static_cast<double>(i) / (k - 1));
          const double r =
              margin == 0 ? 0.0 : (w - static_cast<double>(wt)) / margin;
          Emit(&rng, col, t - std::llround(left * r),
               t + wt - 1 + std::llround(right * r), &out);
        }
        break;
      }
      case 1: {  // hiking: fixed-width window sliding onto the target
        const int64_t w = Width(&rng);
        const int64_t t = rng.Between(1, kRows - w + 1);
        const int64_t s = rng.Between(1, kRows - w + 1);
        for (int i = 0; i < k; ++i) {
          const int64_t lo =
              i == k - 1 ? t
                         : t + std::llround(static_cast<double>(s - t) *
                                            std::pow(0.6, i));
          Emit(&rng, col, lo, lo + w - 1, &out);
        }
        break;
      }
      default: {  // strolling: independent random windows
        for (int i = 0; i < k; ++i) {
          const int64_t w = Width(&rng);
          const int64_t lo = rng.Between(1, kRows - w + 1);
          Emit(&rng, col, lo, lo + w - 1, &out);
        }
        break;
      }
    }
  }
  out.resize(kStmtsPerRound);
  return out;
}

class Explore : public Workload {
 public:
  const char* name() const override { return "explore"; }

  void Generate(uint64_t seed) override {
    Rng r0(StreamSeed(seed, 1, 0));
    Rng r1(StreamSeed(seed, 1, 1));
    c0_ = Permutation(kRows, &r0);
    c1_ = Permutation(kRows, &r1);
    pos0_.assign(kRows + 1, 0);
    for (int64_t i = 0; i < kRows; ++i) {
      pos0_[static_cast<size_t>(c0_[i])] = static_cast<uint32_t>(i);
    }
  }

  Result<RoundOutput> RunRound(uint64_t round_seed, SpanLog* log) override {
    RoundOutput out;
    const std::vector<Stmt> stream = MakeStream(round_seed);

    auto opened = TimedSetup(log, &out);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<AdaptiveStore> store = std::move(*opened);

    // Answers are kept and checked after the stream, so checking costs the
    // stream nothing.
    std::vector<int64_t> answer(stream.size(), 0);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> rows(stream.size());
    std::vector<bool> ok(stream.size(), false);

    Session session(store.get(), log);
    session.Reserve(stream.size());
    const Counters before = Counters::Read();
    const int64_t s0 = NowNs();
    for (size_t i = 0; i < stream.size(); ++i) {
      auto r = session.Run(stream[i].sql, StmtKind::kRead);
      ++out.attempted;
      if (!r.ok()) {
        ++out.errors;
        continue;
      }
      ok[i] = true;
      const crackstore::sql::QueryOutput& q = *r;
      if (stream[i].op == Op::kFetch) {
        if (q.rows == nullptr || q.rows->num_columns() != 2) continue;
        const auto& a = q.rows->column(size_t{0});
        const auto& b = q.rows->column(size_t{1});
        for (size_t j = 0; j < q.rows->num_rows(); ++j) {
          rows[i].emplace_back(a->Get<int64_t>(j), b->Get<int64_t>(j));
        }
      } else if (stream[i].op == Op::kCount) {
        answer[i] = static_cast<int64_t>(q.count);
      } else {
        answer[i] = q.groups.size() == 1 ? q.groups[0].value : INT64_MIN;
      }
    }
    out.stream_s = SecondsSince(s0);
    out.delta = Counters::Read() - before;
    out.stmts = session.records();
    out.layers = session.layers();
    Status st = CloseStore(std::move(store), log);
    if (!st.ok()) return st;

    for (size_t i = 0; i < stream.size(); ++i) {
      if (ok[i]) Check(stream[i], answer[i], rows[i], &out);
    }
    return out;
  }

 protected:
  Result<std::unique_ptr<AdaptiveStore>> Setup(SpanLog* log,
                                               RoundOutput* out) override {
    return OpenAndLoad(crackstore::DbOptions{}, {&c0_, &c1_}, log, out);
  }

 private:
  void Check(const Stmt& s, int64_t answer,
             const std::vector<std::pair<int64_t, int64_t>>& rows,
             RoundOutput* out) const {
    const RangeAggregates want = PermutationRange(kRows, s.lo, s.hi);
    int64_t expect = 0;
    switch (s.op) {
      case Op::kCount:
        expect = static_cast<int64_t>(want.count);
        break;
      case Op::kSum:
        expect = want.sum;
        break;
      case Op::kMin:
        expect = want.min;
        break;
      case Op::kMax:
        expect = want.max;
        break;
      case Op::kFetch: {
        std::vector<int64_t> keys;
        for (const auto& [v0, v1] : rows) {
          const int64_t key = s.col == 0 ? v0 : v1;
          const bool in_table =
              v0 >= 1 && v0 <= kRows &&
              c1_[pos0_[static_cast<size_t>(v0)]] == v1;
          if (!in_table || key < s.lo || key > s.hi) {
            out->Wrong(s.sql + ": row (" + std::to_string(v0) + ", " +
                       std::to_string(v1) + ") is not an answer");
            return;
          }
          keys.push_back(key);
        }
        std::sort(keys.begin(), keys.end());
        const bool distinct =
            std::adjacent_find(keys.begin(), keys.end()) == keys.end();
        if (!distinct || keys.size() != want.count) {
          out->Wrong(s.sql + ": " + std::to_string(keys.size()) +
                     " rows, want " + std::to_string(want.count));
        }
        return;
      }
    }
    if (answer != expect) {
      out->Wrong(s.sql + ": got " + std::to_string(answer) + ", want " +
                 std::to_string(expect));
    }
    if (s.op != Op::kCount) out->rows_aggregated += want.count;
  }

  std::vector<int64_t> c0_, c1_;
  std::vector<uint32_t> pos0_;  // row of each c0 value
};

}  // namespace

std::unique_ptr<Workload> MakeExplore() { return std::make_unique<Explore>(); }

}  // namespace sqlbench
