// Copyright 2026 The CrackStore Authors
//
// Tests for the lineage DAG (paper Figs. 5-6), and parity suites for the
// incremental piece bookkeeping behind it: the cracker index's split log
// and maintained piece count, and the store's Ξ DAG folded from that log,
// each checked against a reference rebuilt from the whole piece table.
// Randomized suites print their seed; reproduce with
// CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/adaptive_store.h"
#include "core/cracker_index.h"
#include "core/lineage.h"
#include "storage/relation.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace crackstore {
namespace {

TEST(LineageTest, AddRootBasics) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 1000);
  EXPECT_EQ(g.num_pieces(), 1u);
  const LineagePiece& p = g.piece(r);
  EXPECT_EQ(p.label, "R");
  EXPECT_EQ(p.size, 1000u);
  EXPECT_TRUE(p.is_root);
  EXPECT_TRUE(p.parents.empty());
}

TEST(LineageTest, XiCrackAddsChildren) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  auto kids = g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 40}, {"R[2]", 60}});
  ASSERT_TRUE(kids.ok());
  ASSERT_EQ(kids->size(), 2u);
  EXPECT_EQ(g.piece((*kids)[0]).label, "R[1]");
  EXPECT_EQ(g.piece((*kids)[0]).produced_by, CrackOp::kXi);
  EXPECT_EQ(g.piece(r).children.size(), 2u);
  EXPECT_EQ(g.piece((*kids)[1]).parents.size(), 1u);
  EXPECT_EQ(g.piece((*kids)[1]).parents[0], r);
}

TEST(LineageTest, RejectsBadInputs) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 10);
  EXPECT_TRUE(g.AddCrack(CrackOp::kXi, {}, {{"x", 1}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(g.AddCrack(CrackOp::kXi, {r}, {}).status().IsInvalidArgument());
  EXPECT_TRUE(
      g.AddCrack(CrackOp::kXi, {999}, {{"x", 1}}).status().IsNotFound());
}

TEST(LineageTest, LeavesOfFreshRootIsItself) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 10);
  auto leaves = g.Leaves(r);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], r);
}

TEST(LineageTest, LeavesAfterNestedCracks) {
  // Reproduce the paper's Fig. 5 shape: R -> {R[1], R[2]}, R[2] -> {R[3],
  // R[4]}, R[4] -> {R[5], R[6]}.
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  auto l1 = *g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 30}, {"R[2]", 70}});
  auto l2 =
      *g.AddCrack(CrackOp::kXi, {l1[1]}, {{"R[3]", 20}, {"R[4]", 50}});
  auto l3 =
      *g.AddCrack(CrackOp::kXi, {l2[1]}, {{"R[5]", 10}, {"R[6]", 40}});
  auto leaves = g.Leaves(r);
  std::vector<std::string> labels;
  labels.reserve(leaves.size());
  for (PieceId id : leaves) labels.push_back(g.piece(id).label);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"R[1]", "R[3]", "R[5]", "R[6]"}));
  (void)l3;
}

TEST(LineageTest, CheckLosslessAcceptsConsistentSizes) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  auto kids = *g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 30}, {"R[2]", 70}});
  (void)g.AddCrack(CrackOp::kXi, {kids[1]}, {{"R[3]", 69}, {"R[4]", 1}});
  EXPECT_TRUE(g.CheckLossless(r).ok());
}

TEST(LineageTest, CheckLosslessRejectsLeak) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  (void)g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 30}, {"R[2]", 60}});  // 90!
  EXPECT_FALSE(g.CheckLossless(r).ok());
}

TEST(LineageTest, CheckLosslessSkipsPsi) {
  // Ψ duplicates cardinality across fragments; it must not trip the check.
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  (void)g.AddCrack(CrackOp::kPsi, {r}, {{"R#1", 100}, {"R#2", 100}});
  EXPECT_TRUE(g.CheckLossless(r).ok());
}

TEST(LineageTest, CheckLosslessSkipsMultiParentOps) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 10);
  PieceId s = g.AddRoot("S", 20);
  (void)g.AddCrack(CrackOp::kWedge, {r, s},
                   {{"P1", 5}, {"P2", 5}, {"P3", 15}, {"P4", 5}});
  EXPECT_TRUE(g.CheckLossless(r).ok());
}

TEST(LineageTest, CheckLosslessUnknownRoot) {
  LineageGraph g;
  EXPECT_TRUE(g.CheckLossless(7).IsNotFound());
}

TEST(LineageTest, OmegaFanout) {
  LineageGraph g;
  PieceId r = g.AddRoot("R.g", 9);
  auto kids = g.AddCrack(CrackOp::kOmega, {r},
                         {{"g=1", 3}, {"g=2", 3}, {"g=3", 3}});
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(g.Leaves(r).size(), 3u);
  EXPECT_TRUE(g.CheckLossless(r).ok());
}

TEST(LineageTest, DotRenderingContainsNodesAndEdges) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  (void)g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 40}, {"R[2]", 60}});
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("digraph lineage"), std::string::npos);
  EXPECT_NE(dot.find("R[1]"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("Xi"), std::string::npos);
}

TEST(LineageTest, TrimDescendantsFusesSubtree) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  auto l1 = *g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 30}, {"R[2]", 70}});
  (void)g.AddCrack(CrackOp::kXi, {l1[1]}, {{"R[3]", 20}, {"R[4]", 50}});
  ASSERT_EQ(g.Leaves(r).size(), 3u);

  ASSERT_TRUE(g.TrimDescendants(r).ok());
  // The root is a leaf again; descendants are marked trimmed.
  auto leaves = g.Leaves(r);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], r);
  EXPECT_TRUE(g.piece(l1[0]).trimmed);
  EXPECT_TRUE(g.piece(l1[1]).trimmed);
  EXPECT_TRUE(g.CheckLossless(r).ok());
}

TEST(LineageTest, TrimThenRecrackStaysConsistent) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 100);
  (void)g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 40}, {"R[2]", 60}});
  ASSERT_TRUE(g.TrimDescendants(r).ok());
  auto fresh = *g.AddCrack(CrackOp::kXi, {r}, {{"R[a]", 25}, {"R[b]", 75}});
  EXPECT_TRUE(g.CheckLossless(r).ok());
  auto leaves = g.Leaves(r);
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0], fresh[1]);  // DFS order; both fresh children present
  EXPECT_EQ(leaves[1], fresh[0]);
}

TEST(LineageTest, TrimUnknownPieceFails) {
  LineageGraph g;
  EXPECT_TRUE(g.TrimDescendants(42).IsNotFound());
}

TEST(LineageTest, TrimmedNodesLeaveDotOutput) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 10);
  (void)g.AddCrack(CrackOp::kXi, {r}, {{"gone[1]", 4}, {"gone[2]", 6}});
  ASSERT_TRUE(g.TrimDescendants(r).ok());
  std::string dot = g.ToDot();
  EXPECT_EQ(dot.find("gone[1]"), std::string::npos);
  EXPECT_NE(dot.find("\"R\\n"), std::string::npos);
}

TEST(LineageTest, ResizeSetsPieceSize) {
  LineageGraph g;
  PieceId r = g.AddRoot("R", 10);
  ASSERT_TRUE(g.Resize(r, 12).ok());
  EXPECT_EQ(g.piece(r).size, 12u);
  (void)g.AddCrack(CrackOp::kXi, {r}, {{"R[1]", 5}, {"R[2]", 7}});
  EXPECT_TRUE(g.CheckLossless(r).ok());
  EXPECT_TRUE(g.Resize(42, 1).IsNotFound());
}

TEST(LineageTest, CrackOpNames) {
  EXPECT_STREQ(CrackOpName(CrackOp::kXi), "Xi");
  EXPECT_STREQ(CrackOpName(CrackOp::kPsi), "Psi");
  EXPECT_STREQ(CrackOpName(CrackOp::kWedge), "Wedge");
  EXPECT_STREQ(CrackOpName(CrackOp::kOmega), "Omega");
}

// ---------------------------------------------------------------------------
// Split-log parity: the positions CrackerIndex::TakeSplits reports, folded
// into a mirror of the piece boundaries, must equal the boundaries of the
// whole piece table after every operation, and the maintained piece count
// must equal the summed IoStats::pieces_created.
// ---------------------------------------------------------------------------

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

/// The interior piece boundaries of a piece table.
template <typename Piece>
std::set<size_t> BoundariesOf(const std::vector<Piece>& pieces) {
  std::set<size_t> out;
  for (size_t i = 1; i < pieces.size(); ++i) out.insert(pieces[i].begin);
  return out;
}

class SplitLogTest : public ::testing::TestWithParam<bool> {};

TEST_P(SplitLogTest, MirrorsPieceTableAndCounter) {
  const bool crack3 = GetParam();
  const uint64_t seed = TestSeed(1301) + (crack3 ? 1 : 0);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  const int64_t domain = 3000;
  std::vector<int64_t> data(2500);
  for (int64_t& v : data) v = rng.NextInRange(1, domain);
  CrackerIndexOptions options;
  options.use_crack_in_three = crack3;
  CrackerIndex<int64_t> index(Bat::FromVector(data, "c"), nullptr, options);

  std::set<size_t> mirror;
  uint64_t created = 0;  // pieces_created since the mirror was last synced
  size_t base_pieces = 1;
  for (int op = 0; op < 400; ++op) {
    IoStats io;
    const int64_t a = rng.NextInRange(-10, domain + 10);
    const int64_t b = a + rng.NextInRange(0, domain / 4);
    const bool incl_a = rng.NextBounded(2) == 0;
    const bool incl_b = rng.NextBounded(2) == 0;
    switch (rng.NextBounded(7)) {
      case 0:
      case 1:
        (void)index.Select(a, incl_a, b, incl_b, &io);
        break;
      case 2:
        (void)index.SelectEquals(a, &io);
        break;
      case 3:
        (void)index.SelectLessThan(a, incl_a, &io);
        break;
      case 4:
        (void)index.SelectGreaterThan(a, incl_a, &io);
        break;
      case 5:
        (void)index.CutProgressive(a, incl_a, 200, &io);
        break;
      case 6:
        if (rng.NextBounded(4) == 0 && index.num_bounds() > 0) {
          // Fusion: the log disarms and the mirror must resync.
          std::vector<CrackBound<int64_t>> bounds = index.Bounds();
          ASSERT_TRUE(
              index.RemoveBound(bounds[rng.NextBounded(bounds.size())].value)
                  .ok());
        } else {
          (void)index.ForceCut(a, incl_a, &io);
        }
        break;
    }
    created += io.pieces_created;
    std::optional<std::vector<size_t>> splits = index.TakeSplits();
    if (!splits.has_value()) {
      mirror = BoundariesOf(index.Pieces());
      created = 0;
      base_pieces = index.num_pieces();
    } else {
      for (size_t pos : *splits) {
        EXPECT_TRUE(mirror.insert(pos).second)
            << "op " << op << ": split " << pos << " was not new";
      }
    }
    ASSERT_EQ(mirror, BoundariesOf(index.Pieces())) << "op " << op;
    ASSERT_EQ(index.num_pieces(), index.Pieces().size()) << "op " << op;
    ASSERT_EQ(index.num_pieces(), base_pieces + created) << "op " << op;
    ASSERT_TRUE(index.Validate().ok()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(CrackInThree, SplitLogTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("on")
                                             : std::string("off");
                         });

// ---------------------------------------------------------------------------
// Store-level Ξ DAG parity: the store folds each statement's logged splits;
// the reference below rebuilds the DAG the way the store did before the
// split log existed — after every folding statement it diffs the whole
// piece table against the registered leaves, trimming the column's subtree
// first when pieces fused or a delta merge rebuilt the accelerator.
// ---------------------------------------------------------------------------

class PieceDiffLineage {
 public:
  const LineageGraph& graph() const { return graph_; }

  /// The store registers a column's root on its first select/aggregate.
  void EnsureRoot(const std::string& label, size_t size) {
    if (root_ != kInvalidPieceId) return;
    root_ = graph_.AddRoot(label, size);
    nodes_[{0, size}] = root_;
  }

  void Sync(const std::string& prefix, const ColumnAccessPath& path,
            bool fused) {
    const size_t merges_now = path.merges_performed();
    if (fused || merges_now != merges_seen_) {
      (void)graph_.TrimDescendants(root_);
      nodes_.clear();
      nodes_[{0, path.Pieces().back().end}] = root_;
      merges_seen_ = merges_now;
    }
    std::map<std::pair<size_t, size_t>, std::vector<PieceInfo>> by_parent;
    for (const PieceInfo& p : path.Pieces()) {
      if (nodes_.count({p.begin, p.end}) > 0) continue;
      for (const auto& [range, node] : nodes_) {
        if (range.first <= p.begin && p.end <= range.second) {
          by_parent[range].push_back(p);
          break;
        }
      }
    }
    for (const auto& [range, children] : by_parent) {
      std::vector<std::pair<std::string, uint64_t>> outputs;
      for (const PieceInfo& p : children) {
        outputs.emplace_back(
            StrFormat("%s[%zu,%zu)", prefix.c_str(), p.begin, p.end),
            p.size());
      }
      auto ids = graph_.AddCrack(CrackOp::kXi, {nodes_[range]}, outputs);
      ASSERT_TRUE(ids.ok());
      nodes_.erase(range);
      for (size_t i = 0; i < children.size(); ++i) {
        nodes_[{children[i].begin, children[i].end}] = (*ids)[i];
      }
    }
  }

 private:
  LineageGraph graph_;
  PieceId root_ = kInvalidPieceId;
  std::map<std::pair<size_t, size_t>, PieceId> nodes_;
  size_t merges_seen_ = 0;
};

void ExpectSameDag(const LineageGraph& got, const LineageGraph& want,
                   int op) {
  ASSERT_EQ(got.num_pieces(), want.num_pieces()) << "op " << op;
  for (PieceId id = 0; id < want.num_pieces(); ++id) {
    const LineagePiece& g = got.piece(id);
    const LineagePiece& w = want.piece(id);
    ASSERT_EQ(g.label, w.label) << "op " << op << " piece " << id;
    ASSERT_EQ(g.size, w.size) << "op " << op << " piece " << id;
    ASSERT_EQ(g.produced_by, w.produced_by) << "op " << op << " piece " << id;
    ASSERT_EQ(g.is_root, w.is_root) << "op " << op << " piece " << id;
    ASSERT_EQ(g.trimmed, w.trimmed) << "op " << op << " piece " << id;
    ASSERT_EQ(g.parents, w.parents) << "op " << op << " piece " << id;
    ASSERT_EQ(g.children, w.children) << "op " << op << " piece " << id;
  }
}

/// A random predicate shape: closed/half-open/open ranges, points and
/// one-sided ranges.
RangeBounds RandomRange(Pcg32* rng, int64_t domain) {
  const int64_t lo = rng->NextInRange(-20, domain + 20);
  const int64_t hi = lo + rng->NextInRange(0, domain / 5);
  switch (rng->NextBounded(8)) {
    case 0:
      return RangeBounds::Equal(lo);
    case 1:
      return RangeBounds::LessThan(lo);
    case 2:
      return RangeBounds::AtLeast(lo);
    case 3:
      return RangeBounds::HalfOpen(lo, hi);
    case 4:
      return RangeBounds::Open(lo, hi);
    default:
      return RangeBounds::Closed(lo, hi);
  }
}

class LineageParityTest
    : public ::testing::TestWithParam<std::tuple<CrackPolicy, bool>> {};

TEST_P(LineageParityTest, FoldedSplitsMatchPieceDiff) {
  const auto [policy, budgeted] = GetParam();
  const uint64_t seed = TestSeed(1302) + static_cast<uint64_t>(policy) * 7 +
                        (budgeted ? 3 : 0);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  AdaptiveStoreOptions opts;
  opts.policy.policy = policy;
  opts.policy.min_piece_size = 48;
  opts.policy.progressive_budget = 0.05;
  if (budgeted) {
    opts.merge_budget = MergeBudget{MergePolicyKind::kLeastRecentlyUsed, 6};
  }
  AdaptiveStore store(opts);
  const size_t n = 3000;
  const int64_t domain = 4000;
  Pcg32 rng(seed);
  auto rel = *Relation::Create(
      "R", Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
  std::vector<int64_t> c0;
  for (size_t i = 0; i < n; ++i) {
    c0.push_back(rng.NextInRange(1, domain));
    ASSERT_TRUE(rel->AppendRow({Value(c0.back()), Value(int64_t{0})}).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto expect_count = [&](const RangeBounds& r) {
    return static_cast<uint64_t>(
        std::count_if(c0.begin(), c0.end(),
                      [&r](int64_t v) { return r.Contains(v); }));
  };

  PieceDiffLineage ref;
  uint64_t created = 0;
  size_t trims_seen = 0;
  for (int op = 0; op < 300; ++op) {
    const uint32_t dice = rng.NextBounded(100);
    const RangeBounds range = RandomRange(&rng, domain);
    IoStats io;
    bool folded = true;
    if (dice < 10 && store.AccessPathFor("R", "c0").ok()) {
      // An explicit pivot between statements: its split folds into the
      // DAG together with the next statement's.
      PivotChoice pivot{rng.NextInRange(1, domain), rng.NextBounded(2) == 0};
      ASSERT_TRUE((*store.AccessPathFor("R", "c0"))->ApplyPolicy(pivot, &io)
                      .ok());
      folded = false;
    } else if (dice < 40) {
      ref.EnsureRoot("R.c0", n);
      auto agg = store.AggregateRange("R", "c0", range);
      if (agg.ok()) {
        ASSERT_EQ(agg->rows, expect_count(range)) << "op " << op;
        io = agg->io;
      } else {
        ASSERT_TRUE(agg.status().IsUnimplemented()) << agg.status().ToString();
        folded = false;
      }
    } else {
      ref.EnsureRoot("R.c0", n);
      const Delivery delivery =
          dice < 55 ? Delivery::kMaterialize
                    : (dice < 75 ? Delivery::kView : Delivery::kCount);
      auto qr = store.SelectRange("R", "c0", range, delivery);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      ASSERT_EQ(qr->count, expect_count(range)) << "op " << op;
      if (delivery == Delivery::kMaterialize) {
        ASSERT_EQ(qr->materialized->num_rows(), qr->count) << "op " << op;
      }
      io = qr->io;
    }
    created += io.pieces_created;
    if (folded) {
      const bool fused = io.catalog_ops > 0;
      trims_seen += fused ? 1 : 0;
      ref.Sync("R.c0", **store.AccessPathFor("R", "c0"), fused);
    }
    ExpectSameDag(store.lineage(), ref.graph(), op);
    ASSERT_TRUE(store.Verify().ok()) << store.Verify().ToString();
    const PieceId root = 0;
    ASSERT_TRUE(store.lineage().CheckLossless(root).ok()) << "op " << op;
    if (folded) {
      // Right after a fold the DAG's leaves are the piece table.
      std::vector<PieceInfo> pieces =
          (*store.AccessPathFor("R", "c0"))->Pieces();
      std::vector<std::string> want;
      if (pieces.size() > 1) {
        for (const PieceInfo& p : pieces) {
          want.push_back(StrFormat("R.c0[%zu,%zu)", p.begin, p.end));
        }
      } else {
        want.push_back("R.c0");
      }
      std::vector<std::string> leaves;
      for (PieceId id : store.lineage().Leaves(root)) {
        leaves.push_back(store.lineage().piece(id).label);
      }
      std::sort(want.begin(), want.end());
      std::sort(leaves.begin(), leaves.end());
      ASSERT_EQ(leaves, want) << "op " << op;
    }
    if (!budgeted && store.AccessPathFor("R", "c0").ok()) {
      ASSERT_EQ(*store.NumPieces("R", "c0"), 1 + created) << "op " << op;
    }
  }
  if (budgeted) {
    EXPECT_GT(trims_seen, 0u) << "the budget never fused pieces";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LineageParityTest,
    ::testing::Values(std::make_tuple(CrackPolicy::kStandard, false),
                      std::make_tuple(CrackPolicy::kStochastic, false),
                      std::make_tuple(CrackPolicy::kCoarse, false),
                      std::make_tuple(CrackPolicy::kProgressive, false),
                      std::make_tuple(CrackPolicy::kAuto, false),
                      std::make_tuple(CrackPolicy::kStandard, true)),
    [](const auto& info) {
      return std::string(CrackPolicyName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_merge_budget" : "");
    });

// The concurrent path counts pieces the same way (and carries no lineage).
class ConcurrentPieceCountTest : public ::testing::TestWithParam<CrackPolicy> {
};

TEST_P(ConcurrentPieceCountTest, PiecesCreatedSumsToPieceCount) {
  const CrackPolicy policy = GetParam();
  const uint64_t seed = TestSeed(1303) + static_cast<uint64_t>(policy) * 7;
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  AdaptiveStoreOptions opts;
  opts.concurrent = true;
  opts.policy.policy = policy;
  opts.policy.min_piece_size = 48;
  opts.policy.progressive_budget = 0.05;
  AdaptiveStore store(opts);
  const int64_t domain = 4000;
  Pcg32 rng(seed);
  auto rel = *Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
  for (size_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(rng.NextInRange(1, domain))}).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  uint64_t created = 0;
  for (int op = 0; op < 200; ++op) {
    const RangeBounds range = RandomRange(&rng, domain);
    if (rng.NextBounded(3) == 0) {
      auto agg = store.AggregateRange("R", "c0", range);
      if (agg.ok()) created += agg->io.pieces_created;
    } else {
      auto qr = store.SelectRange("R", "c0", range, Delivery::kView);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      created += qr->io.pieces_created;
    }
    ASSERT_EQ(*store.NumPieces("R", "c0"), 1 + created) << "op " << op;
    ASSERT_TRUE(store.Verify().ok()) << "op " << op;
  }
  EXPECT_EQ(store.lineage().num_pieces(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ConcurrentPieceCountTest,
    ::testing::Values(CrackPolicy::kStandard, CrackPolicy::kStochastic,
                      CrackPolicy::kCoarse, CrackPolicy::kProgressive,
                      CrackPolicy::kAuto),
    [](const auto& info) {
      return std::string(CrackPolicyName(info.param));
    });

}  // namespace
}  // namespace crackstore
