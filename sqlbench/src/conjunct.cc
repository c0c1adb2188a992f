// Copyright 2026 The CrackStore Authors
//
// Workload `conjunct`: one client on the default store over R(c0, c1, c2),
// 1M rows of int64 permutations of 1..N — 24 MB, which fits in a 105 MiB
// L3. Every block of ten statements holds:
//   * five 2-leg and one 3-leg COUNT(*) conjunctions pairing one selective
//     leg (selectivity log-uniform in 1e-4..1e-2) with wide legs (10-60%);
//   * two all-wide conjunctions (one of 2 legs, one of 3);
//   * two cross-column SUM(c1) WHERE c0 BETWEEN ... (1e-3..1e-1).
// The cheap SUMs sit below and the 3-leg and all-wide statements above the
// 2-leg ones, so a decile's median lands inside the 2-leg group, whose
// cost follows its (stratified) wide-leg width rather than the kind mix.
// Multi-leg statements go through the conjunction's candidate lists
// (collect, sort, intersect) and the cross-column SUM through the
// materialize-then-aggregate fallback — the mechanisms `explore` bypasses.
//
// Answers are checked by the benchmark's own scan over its copy of the
// generated columns, after the stream.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "rng.h"
#include "stats.h"

namespace sqlbench {
namespace {

constexpr int64_t kRows = 1'000'000;
constexpr size_t kStmtsPerRound = 200;

struct Leg {
  int col;
  int64_t lo;
  int64_t hi;
};

struct Stmt {
  std::string sql;
  bool sum;  // SUM(c1) WHERE legs[0] (on c0), else COUNT(*) WHERE legs
  std::vector<Leg> legs;
};

std::string LegSql(const Leg& l) {
  return "c" + std::to_string(l.col) + " BETWEEN " + std::to_string(l.lo) +
         " AND " + std::to_string(l.hi);
}

Leg MakeLeg(Rng* rng, int col, double frac) {
  const int64_t w = std::max<int64_t>(
      1, static_cast<int64_t>(frac * static_cast<double>(kRows)));
  const int64_t lo = rng->Between(1, kRows - w + 1);
  return {col, lo, lo + w - 1};
}

// Stratified uniforms: n draws, one in each [j/n, (j+1)/n), in random
// order. Every decile draws its leg widths this way, so each tenth of the
// stream spans the whole width range and deciles differ by position and
// jitter only, not by a lucky run of narrow or wide legs.
class Strata {
 public:
  Strata(size_t n, Rng* rng) {
    for (size_t j = 0; j < n; ++j) u_.push_back((j + rng->Uniform()) / n);
    for (size_t j = n; j > 1; --j) std::swap(u_[j - 1], u_[rng->Below(j)]);
  }
  double Next() { return u_.at(next_++); }

 private:
  std::vector<double> u_;
  size_t next_ = 0;
};

double LogScale(double u, double lo, double hi) {
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

std::vector<Stmt> MakeStream(uint64_t seed) {
  // Statement kinds within each block of ten, and their wide legs.
  enum Kind { kTwo, kThree, kWide2, kWide3, kSum, kKinds };
  static constexpr size_t kWideLegs[kKinds] = {1, 2, 2, 3, 0};
  static constexpr Kind kBlock[10] = {kTwo, kSum, kTwo,  kThree, kTwo,
                                      kWide2, kTwo, kSum, kTwo, kWide3};
  Rng rng(seed);
  std::vector<Stmt> out;
  out.reserve(kStmtsPerRound);
  for (size_t d = 0; d < 10; ++d) {
    const auto [begin, end] = DecileBounds(kStmtsPerRound, d);
    // Each kind draws its widths from its own strata, so that the widths
    // of, say, the 2-leg statements of a decile cover the whole range.
    size_t n_sel = 0, n_sum = 0, n_wide[kKinds] = {};
    for (size_t i = begin; i < end; ++i) {
      const Kind kind = kBlock[i % 10];
      n_sel += kind == kTwo || kind == kThree;
      n_sum += kind == kSum;
      n_wide[kind] += kWideLegs[kind];
    }
    Strata sel(n_sel, &rng), sum(n_sum, &rng);
    std::vector<Strata> wide;
    for (int k = 0; k < kKinds; ++k) wide.emplace_back(n_wide[k], &rng);
    for (size_t i = begin; i < end; ++i) {
      int cols[3] = {0, 1, 2};
      for (int j = 2; j > 0; --j) std::swap(cols[j], cols[rng.Below(j + 1)]);
      const Kind kind = kBlock[i % 10];
      Stmt s;
      s.sum = kind == kSum;
      if (kind == kTwo || kind == kThree) {
        s.legs.push_back(
            MakeLeg(&rng, cols[0], LogScale(sel.Next(), 1e-4, 1e-2)));
      } else if (kind == kSum) {
        s.legs.push_back(MakeLeg(&rng, 0, LogScale(sum.Next(), 1e-3, 1e-1)));
      }
      for (size_t j = 0; j < kWideLegs[kind]; ++j) {
        s.legs.push_back(MakeLeg(&rng, cols[s.legs.size()],
                                 0.1 + 0.5 * wide[kind].Next()));
      }
      std::string where;
      for (const Leg& l : s.legs) {
        where += (where.empty() ? " WHERE " : " AND ") + LegSql(l);
      }
      s.sql = (s.sum ? "SELECT SUM(c1) FROM R" : "SELECT COUNT(*) FROM R") +
              where;
      out.push_back(std::move(s));
    }
  }
  return out;
}

class Conjunct : public Workload {
 public:
  const char* name() const override { return "conjunct"; }

  void Generate(uint64_t seed) override {
    for (int c = 0; c < 3; ++c) {
      Rng r(StreamSeed(seed, 1, static_cast<uint64_t>(c)));
      cols_[c] = Permutation(kRows, &r);
    }
  }

  Result<RoundOutput> RunRound(uint64_t round_seed, SpanLog* log) override {
    RoundOutput out;
    const std::vector<Stmt> stream = MakeStream(round_seed);

    auto opened = TimedSetup(log, &out);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<AdaptiveStore> store = std::move(*opened);

    std::vector<int64_t> answer(stream.size(), 0);
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
      if (stream[i].sum) {
        answer[i] = r->groups.size() == 1 ? r->groups[0].value : INT64_MIN;
      } else {
        answer[i] = static_cast<int64_t>(r->count);
      }
    }
    out.stream_s = SecondsSince(s0);
    out.delta = Counters::Read() - before;
    out.stmts = session.records();
    out.layers = session.layers();
    Status st = CloseStore(std::move(store), log);
    if (!st.ok()) return st;

    for (size_t i = 0; i < stream.size(); ++i) {
      if (!ok[i]) continue;
      const auto [count, sum] = Scan(stream[i].legs);
      const int64_t want = stream[i].sum ? sum : count;
      if (answer[i] != want) {
        out.Wrong(stream[i].sql + ": got " + std::to_string(answer[i]) +
                  ", want " + std::to_string(want));
      }
      if (stream[i].sum) out.rows_aggregated += static_cast<uint64_t>(count);
    }
    return out;
  }

 protected:
  Result<std::unique_ptr<AdaptiveStore>> Setup(SpanLog* log,
                                               RoundOutput* out) override {
    return OpenAndLoad(crackstore::DbOptions{},
                       {&cols_[0], &cols_[1], &cols_[2]}, log, out);
  }

 private:
  // {rows matching every leg, SUM(c1) over them}.
  std::pair<int64_t, int64_t> Scan(const std::vector<Leg>& legs) const {
    int64_t count = 0, sum = 0;
    for (int64_t i = 0; i < kRows; ++i) {
      bool all = true;
      for (const Leg& l : legs) {
        const int64_t v = cols_[l.col][static_cast<size_t>(i)];
        all = all && v >= l.lo && v <= l.hi;
      }
      if (all) {
        ++count;
        sum += cols_[1][static_cast<size_t>(i)];
      }
    }
    return {count, sum};
  }

  std::vector<int64_t> cols_[3];
};

}  // namespace

std::unique_ptr<Workload> MakeConjunct() {
  return std::make_unique<Conjunct>();
}

}  // namespace sqlbench
