// Copyright 2026 The CrackStore Authors

#include "core/access_path.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/instruments.h"

#include "core/latch.h"
#include "core/sorted_column.h"
#include "core/task_pool.h"
#include "core/updatable_cracker_index.h"
#include "storage/dictionary.h"
#include "util/string_util.h"

namespace crackstore {

const char* AccessStrategyName(AccessStrategy strategy) {
  switch (strategy) {
    case AccessStrategy::kScan:
      return "scan";
    case AccessStrategy::kCrack:
      return "crack";
    case AccessStrategy::kSort:
      return "sort";
  }
  return "?";
}

Result<AccessSelection> ColumnAccessPath::SelectTyped(const TypedRange& range,
                                                      bool want_oids,
                                                      IoStats* stats,
                                                      const SnapshotView* view) {
  if (range.has_string()) {
    return Status::TypeMismatch(
        "string predicate on a numeric access path (string bounds need a "
        "string column)");
  }
  return Select(range.ToNumericBounds(), want_oids, stats, view);
}

namespace {

/// Clamps int64 range bounds into the typed domain of the column so that
/// sentinel bounds (INT64_MIN/MAX) work for narrower types. Floating-point
/// columns take the bounds verbatim (every int64 is representable, modulo
/// rounding at the extremes).
template <typename T>
void ClampRange(const RangeBounds& range, T* lo, bool* lo_incl, T* hi,
                bool* hi_incl) {
  if constexpr (std::is_floating_point_v<T>) {
    *lo = static_cast<T>(range.lo);
    *hi = static_cast<T>(range.hi);
    *lo_incl = range.lo_incl;
    *hi_incl = range.hi_incl;
  } else {
    int64_t tmin = static_cast<int64_t>(std::numeric_limits<T>::min());
    int64_t tmax = static_cast<int64_t>(std::numeric_limits<T>::max());
    int64_t lo64 = std::clamp(range.lo, tmin, tmax);
    int64_t hi64 = std::clamp(range.hi, tmin, tmax);
    *lo = static_cast<T>(lo64);
    *hi = static_cast<T>(hi64);
    // A bound clamped from *outside* the domain keeps its meaning via the
    // inclusivity: lo = INT64_MIN over int32 becomes lo = INT32_MIN inclusive
    // (everything passes that side), while lo > INT32_MAX becomes
    // lo = INT32_MAX exclusive (nothing can satisfy v >= lo). Mirrored for hi.
    *lo_incl = (lo64 != range.lo) ? (range.lo < tmin) : range.lo_incl;
    *hi_incl = (hi64 != range.hi) ? (range.hi > tmax) : range.hi_incl;
  }
}

/// Narrows a dynamically-typed DML value into the column's domain. Owners
/// coerce rows to the column types before the base mutation (CoerceRow), so
/// this is a defensive cast, not a validation point.
template <typename T>
T CastValue(const Value& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v.is_double() ? static_cast<T>(v.AsDouble())
                         : static_cast<T>(v.ToInt64());
  } else {
    int64_t wide = v.is_double() ? static_cast<int64_t>(v.AsDouble())
                                 : v.ToInt64();
    return static_cast<T>(
        std::clamp(wide, static_cast<int64_t>(std::numeric_limits<T>::min()),
                   static_cast<int64_t>(std::numeric_limits<T>::max())));
  }
}

template <typename T>
bool InRange(T v, T lo, bool lo_incl, T hi, bool hi_incl) {
  if (lo_incl ? v < lo : v <= lo) return false;
  if (hi_incl ? v > hi : v >= hi) return false;
  return true;
}

std::string ExplainPieces(const std::vector<PieceInfo>& pieces) {
  std::string out;
  size_t shown = 0;
  for (const PieceInfo& p : pieces) {
    if (++shown > 64) {
      out += StrFormat("  ... (%zu pieces)\n", pieces.size());
      break;
    }
    std::string lo = p.has_lo ? StrFormat("%s%lld", p.lo_strict ? ">" : ">=",
                                          static_cast<long long>(p.lo))
                              : "-inf";
    std::string hi = p.has_hi ? StrFormat("%s%lld", p.hi_strict ? "<" : "<=",
                                          static_cast<long long>(p.hi))
                              : "+inf";
    out += StrFormat("  piece [%zu, %zu) size=%zu  values %s .. %s\n",
                     p.begin, p.end, p.size(), lo.c_str(), hi.c_str());
  }
  return out;
}

/// Shared Delete() validation: inserts append to the base before notifying
/// the path, so the base size bounds every oid ever issued — one check for
/// all strategies, independent of build timing.
Status CheckDeletableOid(const Bat& column, Oid oid) {
  if (oid >= column.head_base() + column.size()) {
    return Status::NotFound(
        StrFormat("oid %llu was never inserted",
                  static_cast<unsigned long long>(oid)));
  }
  return Status::OK();
}

Status AlreadyDeletedError(Oid oid) {
  return Status::AlreadyExists(
      StrFormat("oid %llu already deleted",
                static_cast<unsigned long long>(oid)));
}

/// Owner-maintenance poll shared by the delta-carrying paths: do `dirty`
/// pending deltas against an accelerator of `accel_size` tuples warrant a
/// fold under `options`?
bool MaintenanceDue(const DeltaMergeOptions& options, size_t dirty,
                    size_t accel_size) {
  if (dirty == 0) return false;
  switch (options.policy) {
    case DeltaMergePolicy::kImmediate:
    case DeltaMergePolicy::kRippleOnSelect:
      return true;
    case DeltaMergePolicy::kThreshold:
      return dirty > static_cast<size_t>(options.threshold_fraction *
                                         static_cast<double>(accel_size));
  }
  return false;
}

/// The whole column as one undecorated piece.
std::vector<PieceInfo> WholeColumnPiece(size_t n) {
  PieceInfo piece;
  piece.begin = 0;
  piece.end = n;
  return {piece};
}

/// True when `view` can change an answer (hide rows or override values).
inline bool ViewActive(const SnapshotView* view) {
  return view != nullptr && view->active();
}

/// Re-admits a view's value overrides into an (already non-contiguous)
/// answer: rows whose value at the snapshot differs from the physical one
/// were excluded by the visibility filter; the ones whose snapshot value
/// qualifies join back here (vacuum-purged rows stay out via RowVisible).
/// Caller sorts the oid list afterwards.
template <typename T>
void ReadmitOverrides(const SnapshotView* view, T lo, bool lo_incl, T hi,
                      bool hi_incl, bool want_oids, AccessSelection* out) {
  if (!ViewActive(view)) return;
  for (const auto& [oid, value] : view->overrides()) {
    if (!view->RowVisible(oid)) continue;
    if (!InRange(CastValue<T>(value), lo, lo_incl, hi, hi_incl)) continue;
    ++out->count;
    if (want_oids) out->oids.push_back(oid);
    if (out->has_span_set) out->span_set.AddExtra(oid);
  }
}

/// Applies a path's pending write deltas — and the caller's MVCC read
/// filter — to a base answer: physically tombstoned and snapshot-invisible
/// rows drop out, qualifying pending inserts join in, and overridden rows
/// re-enter per their value at the snapshot. When the answer is touched at
/// all it degrades from a contiguous view to an (ascending) oid list — the
/// price of reading through an unmerged delta or an unvacuumed version.
template <typename T, typename IsDeletedFn>
void OverlayDeltaAnswer(const std::vector<std::pair<T, Oid>>& pending,
                        size_t num_tombstones, IsDeletedFn&& is_deleted, T lo,
                        bool lo_incl, T hi, bool hi_incl, bool want_oids,
                        const SnapshotView* view, IoStats* stats,
                        AccessSelection* out) {
  bool versioned = ViewActive(view);
  size_t delta_hits = 0;
  for (const auto& [value, oid] : pending) {
    delta_hits += InRange(value, lo, lo_incl, hi, hi_incl) ? 1 : 0;
  }
  if (stats != nullptr && !pending.empty()) {
    stats->tuples_read += pending.size();
  }
  if (num_tombstones == 0 && delta_hits == 0 && !versioned) {
    return;  // clean answer
  }

  auto hidden = [&](Oid oid) {
    if (num_tombstones > 0 && is_deleted(oid)) return true;
    return versioned && view->Hides(oid);
  };

  if (!out->contiguous && num_tombstones == 0 && !versioned) {
    // Oid-list base answer with nothing to subtract: the base count stands
    // even when the caller skipped the oid gather (count-only coarse
    // selects); just add the qualifying pending inserts.
    out->count += delta_hits;
    if (want_oids) {
      for (const auto& [value, oid] : pending) {
        if (InRange(value, lo, lo_incl, hi, hi_incl)) out->oids.push_back(oid);
      }
      std::sort(out->oids.begin(), out->oids.end());
    }
    return;
  }

  uint64_t count = 0;
  std::vector<Oid> oids;
  if (want_oids) oids.reserve(static_cast<size_t>(out->count) + delta_hits);
  if (out->contiguous) {
    // Contiguous crack answers filter through a batch visibility bitmap:
    // one version-log latch acquisition for the whole span instead of a
    // per-row Hides() probe.
    size_t span = out->view.oids.size();
    const Oid* oid_ptr = out->view.oids.template data<Oid>();
    std::vector<uint64_t> vis;
    if (versioned) {
      vis.resize(BitmapWords(span));
      view->VisibleMask(oid_ptr, span, vis.data());
    }
    for (size_t i = 0; i < span; ++i) {
      Oid oid = oid_ptr[i];
      bool drop = (num_tombstones > 0 && is_deleted(oid)) ||
                  (versioned && !BitmapTest(vis.data(), i));
      if (drop) {
        // The span survives the delta: a dropped row becomes an exception
        // bit instead of forcing the whole answer into an oid list.
        if (out->has_span_set) out->span_set.MarkException(i);
        continue;
      }
      ++count;
      if (want_oids) oids.push_back(oid);
    }
    if (stats != nullptr) stats->tuples_read += span;
  } else {
    for (Oid oid : out->oids) {
      if (hidden(oid)) continue;
      ++count;
      if (want_oids) oids.push_back(oid);
    }
  }
  for (const auto& [value, oid] : pending) {
    if (!InRange(value, lo, lo_incl, hi, hi_incl)) continue;
    // Only the snapshot filter applies here: an updated row is tombstoned
    // at its old position AND pending at its new value — the tombstone
    // must not cancel the pending re-entry.
    if (versioned && view->Hides(oid)) continue;
    ++count;
    if (want_oids) oids.push_back(oid);
    if (out->has_span_set) out->span_set.AddExtra(oid);
  }
  out->contiguous = false;
  out->view = CrackSelection{};
  out->count = count;
  out->oids = std::move(oids);
  ReadmitOverrides<T>(view, lo, lo_incl, hi, hi_incl, want_oids, out);
  if (want_oids) std::sort(out->oids.begin(), out->oids.end());
}

/// Reduces the value span [vals, vals + n) with the optional visibility /
/// tombstone filters: the unmasked kernel runs when nothing can hide a row,
/// otherwise one batch visibility mask (a single version-log latch for the
/// whole span) with tombstones cleared bit-wise feeds the masked kernel.
template <typename T, typename IsDeletedFn>
SpanAggregates ReduceSpan(const T* vals, const Oid* oid_data, size_t n,
                          size_t num_tombstones, IsDeletedFn&& is_deleted,
                          const SnapshotView* view) {
  bool versioned = ViewActive(view);
  if (!versioned && num_tombstones == 0) return AggregateSpan(vals, n);
  std::vector<uint64_t> bm(BitmapWords(n));
  if (versioned) {
    view->VisibleMask(oid_data, n, bm.data());
  } else {
    BitmapFill(bm.data(), n);
  }
  if (num_tombstones > 0) {
    for (size_t i = 0; i < n; ++i) {
      if (BitmapTest(bm.data(), i) && is_deleted(oid_data[i])) {
        BitmapClearBit(bm.data(), i);
      }
    }
  }
  return AggregateSpanMasked(vals, n, bm.data());
}

/// Folds a span-kernel result plus the scalar corrections — qualifying
/// pending inserts and snapshot override re-admissions — into the
/// int64-widened aggregate answer. The corrections are purely additive:
/// VisibleMask already excluded every overridden and hidden row from the
/// span reduction, which is what makes MIN/MAX pushable at all.
template <typename T>
void FoldAggregates(const SpanAggregates& agg, size_t span_n,
                    const std::vector<std::pair<T, Oid>>& pending, T lo,
                    bool lo_incl, T hi, bool hi_incl, const SnapshotView* view,
                    IoStats* stats, ColumnAggregates* out) {
  bool versioned = ViewActive(view);
  out->pushdown_rows = span_n;
  out->rows = agg.count;
  // Wrapping uint64 matches both the kernel contract and the executor's
  // scalar int64 accumulator (two's complement).
  uint64_t sum = static_cast<uint64_t>(agg.sum_i);
  bool have = agg.count > 0;
  int64_t mn = have ? agg.min_i : 0;
  int64_t mx = have ? agg.max_i : 0;
  auto fold = [&](int64_t v) {
    sum += static_cast<uint64_t>(v);
    ++out->rows;
    if (!have || v < mn) mn = v;
    if (!have || v > mx) mx = v;
    have = true;
  };
  for (const auto& [value, oid] : pending) {
    if (!InRange(value, lo, lo_incl, hi, hi_incl)) continue;
    // Snapshot filter only: an updated row is tombstoned at its old
    // position AND pending at its new value.
    if (versioned && view->Hides(oid)) continue;
    fold(static_cast<int64_t>(value));
  }
  if (versioned) {
    for (const auto& [oid, value] : view->overrides()) {
      if (!view->RowVisible(oid)) continue;
      T tv = CastValue<T>(value);
      if (!InRange(tv, lo, lo_incl, hi, hi_incl)) continue;
      fold(static_cast<int64_t>(tv));
    }
  }
  out->sum = static_cast<int64_t>(sum);
  out->has_minmax = have;
  out->min = mn;
  out->max = mx;
  if (stats != nullptr) stats->tuples_read += span_n + pending.size();
}

/// Shared empty-range probe for the aggregate entry points.
template <typename T>
bool EmptyRange(T lo, bool lo_incl, T hi, bool hi_incl) {
  return lo > hi || (lo == hi && !(lo_incl && hi_incl));
}

// --- crack ----------------------------------------------------------------

template <typename T>
class CrackAccessPath : public ColumnAccessPath {
 public:
  CrackAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)), config_(config), engine_(config.policy) {}

  AccessStrategy strategy() const override { return AccessStrategy::kCrack; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    // Cracking parallelizes across pieces: every shuffle is covered by a
    // range lock, and all three policies can steer under the shared latch —
    // standard cuts at the query bounds, stochastic draws auxiliary pivots
    // through the concurrent primitives (PieceSpanForConcurrent + a cell
    // lock on the drawn slot), and coarse filters fuzzy edges under the
    // shared span lock. Only merge budgets still need the exclusive latch:
    // they rewrite the boundary map on every select.
    return config_.merge_budget.unlimited() ? PathConcurrency::kSharedReads
                                            : PathConcurrency::kExclusiveOnly;
  }

  bool SharedSelectReady() const override {
    return built_.load(std::memory_order_acquire);
  }

  bool WantsMaintenance() const override {
    if (!config_.concurrent || !built_.load(std::memory_order_acquire)) {
      return false;
    }
    return MaintenanceDue(config_.delta_merge,
                          dirty_count_.load(std::memory_order_relaxed),
                          accel_size_.load(std::memory_order_relaxed));
  }

  AccessSelection Select(const RangeBounds& range, bool want_oids,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);

    AccessSelection out;
    // Provably-empty range: answer before paying the O(n) index build
    // (nothing — not even an override — can satisfy an empty range).
    if (lo > hi || (lo == hi && !(lo_incl && hi_incl))) return out;

    // kAuto: one detector sample per query — the clamped range midpoint
    // (averaged in halves so extreme integer bounds cannot overflow).
    if (engine_.policy() == CrackPolicy::kAuto) {
      const double mid =
          0.5 * static_cast<double>(lo) + 0.5 * static_cast<double>(hi);
      if (config_.concurrent) {
        std::lock_guard<std::mutex> lk(engine_mu_);
        engine_.Observe(mid);
      } else {
        engine_.Observe(mid);
      }
    }

    if (config_.concurrent &&
        concurrency() == PathConcurrency::kSharedReads &&
        built_.load(std::memory_order_acquire)) {
      return SelectShared(lo, lo_incl, hi, hi_incl, want_oids, stats, view);
    }

    EnsureBuilt(stats);
    // Concurrent mode defers delta folds to the owner's maintenance hook
    // (exclusive latch); a raced-in delta is overlaid below instead.
    if (!config_.concurrent) MaybeMergeOnSelect(stats);
    CrackerIndex<T>* inner = updatable_->mutable_index();
    // Tombstones (and snapshot filters) force the coarse path to gather
    // oids: an answer spanning uncracked edges cannot subtract hidden rows
    // without naming them.
    bool gather = want_oids || updatable_->pending_deletes() > 0 ||
                  ViewActive(view);
    out.contiguous = true;
    switch (engine_.effective()) {
      case CrackPolicy::kStandard:
      case CrackPolicy::kAuto:  // effective() never reports kAuto; defensive
        out.view = inner->Select(lo, lo_incl, hi, hi_incl, stats);
        out.count = out.view.count();
        break;
      case CrackPolicy::kStochastic:
        // DDC: shrink the pieces the bounds land in with random pivots
        // first, so progress is made even when the bounds themselves follow
        // a pathological (e.g. sequential) pattern.
        StochasticShrink(lo, /*want_incl=*/!lo_incl, stats);
        StochasticShrink(hi, /*want_incl=*/hi_incl, stats);
        out.view = inner->Select(lo, lo_incl, hi, hi_incl, stats);
        out.count = out.view.count();
        break;
      case CrackPolicy::kCoarse:
        CoarseSelect(lo, lo_incl, hi, hi_incl, gather, stats, &out);
        break;
      case CrackPolicy::kProgressive:
        ProgressiveSelect(lo, lo_incl, hi, hi_incl, gather, stats, &out);
        break;
    }
    // Zero-materialization answer: a contiguous piece of the cracked column
    // is one span over its permuted oid map. The overlay below keeps the
    // span and degrades deltas into exception bits / extras instead of
    // forcing an oid-list materialization. Serial statements only — shared
    // readers go through SelectShared, whose spans would not survive the
    // range locks dropping.
    if (out.contiguous && out.view.oids.bat() != nullptr) {
      out.span_set.BindOidMap(out.view.oids.bat());
      out.span_set.AddSpan(out.view.oids.offset(),
                           out.view.oids.offset() + out.view.oids.size());
      out.has_span_set = true;
    }
    OverlayDeltaAnswer<T>(
        updatable_->pending(), updatable_->pending_deletes(),
        [this](Oid oid) { return updatable_->IsDeleted(oid); }, lo, lo_incl,
        hi, hi_incl, want_oids, view, stats, &out);

    if (!config_.merge_budget.unlimited()) {
      out.bounds_dropped =
          EnforceMergeBudget(inner, config_.merge_budget, stats);
    }
    return out;
  }

  Result<ColumnAggregates> AggregateRange(
      const RangeBounds& range, IoStats* stats,
      const SnapshotView* view = nullptr) override {
    if constexpr (std::is_floating_point_v<T>) {
      (void)range;
      (void)stats;
      (void)view;
      return Status::Unimplemented(
          "aggregate pushdown: non-integer column domain");
    } else {
      T lo, hi;
      bool lo_incl, hi_incl;
      ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
      ColumnAggregates out;
      if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
      // The aggregate is still a query, so it still advises the detector.
      if (engine_.policy() == CrackPolicy::kAuto) {
        const double mid =
            0.5 * static_cast<double>(lo) + 0.5 * static_cast<double>(hi);
        if (config_.concurrent) {
          std::lock_guard<std::mutex> lk(engine_mu_);
          engine_.Observe(mid);
        } else {
          engine_.Observe(mid);
        }
      }
      if (config_.concurrent &&
          concurrency() == PathConcurrency::kSharedReads &&
          built_.load(std::memory_order_acquire)) {
        return AggregateShared(lo, lo_incl, hi, hi_incl, stats, view);
      }
      if (engine_.effective() == CrackPolicy::kProgressive) {
        // A budgeted crack may leave open frontiers; cutting exactly here
        // would blow the write budget the policy promises to honor.
        return Status::Unimplemented(
            "aggregate pushdown: progressive cracks stay budgeted");
      }
      EnsureBuilt(stats);
      if (!config_.concurrent) MaybeMergeOnSelect(stats);
      CrackerIndex<T>* inner = updatable_->mutable_index();
      if (engine_.effective() == CrackPolicy::kStochastic) {
        StochasticShrink(lo, /*want_incl=*/!lo_incl, stats);
        StochasticShrink(hi, /*want_incl=*/hi_incl, stats);
      }
      // Every remaining policy cuts exactly at the bounds: a pushed-down
      // reduction needs value-exact spans and has no per-row loop left to
      // trim fuzzy edges in. kCoarse therefore cracks finer here than its
      // select threshold would — a documented deviation.
      CrackSelection sel = inner->Select(lo, lo_incl, hi, hi_incl, stats);
      AccumulateSpan(inner, sel.values.offset(), sel.values.size(), lo,
                     lo_incl, hi, hi_incl, view, stats, &out);
      if (!config_.merge_budget.unlimited()) {
        (void)EnforceMergeBudget(inner, config_.merge_budget, stats);
      }
      return out;
    }
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (updatable_ == nullptr) return Status::OK();  // lazy build reads base
    {
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (config_.concurrent) dl.lock();
      CRACK_RETURN_NOT_OK(updatable_->Insert(CastValue<T>(value), oid));
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status Delete(Oid oid, IoStats* stats) override {
    if (updatable_ == nullptr) {
      // Mirror the built path's validation so the answer does not depend on
      // build timing (and so EnsureBuilt's replay cannot fail).
      CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (config_.concurrent) dl.lock();
      if (!pre_build_deletes_.insert(oid).second) {
        return AlreadyDeletedError(oid);
      }
      return Status::OK();
    }
    {
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (config_.concurrent) dl.lock();
      CRACK_RETURN_NOT_OK(updatable_->Delete(oid));
      SyncDirty();
    }
    return MaybeMergeOnWrite(stats);
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    if (updatable_ == nullptr) return Status::OK();  // base slot overwritten
    {
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (config_.concurrent) dl.lock();
      CRACK_RETURN_NOT_OK(updatable_->Update(CastValue<T>(value), oid));
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status FlushDeltas(IoStats* stats) override {
    if (updatable_ == nullptr && pre_build_deletes_.empty()) {
      return Status::OK();
    }
    EnsureBuilt(stats);
    Status st = updatable_->Merge(stats);
    SyncDirty();
    return st;
  }

  size_t pending_inserts() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return updatable_ == nullptr ? 0 : updatable_->pending_inserts();
  }
  size_t pending_deletes() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return updatable_ == nullptr ? pre_build_deletes_.size()
                                 : updatable_->pending_deletes();
  }
  size_t merges_performed() const override {
    return updatable_ == nullptr ? 0 : updatable_->merges_performed();
  }

  size_t accel_tuples() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return updatable_ == nullptr ? 0 : updatable_->index().size();
  }

  std::vector<PieceInfo> Pieces() const override {
    if (updatable_ == nullptr) return WholeColumnPiece(column_->size());
    std::vector<PieceInfo> out;
    for (const CrackPiece<T>& p : updatable_->index().Pieces()) {
      PieceInfo info;
      info.begin = p.begin;
      info.end = p.end;
      info.has_lo = p.has_lo;
      info.lo = static_cast<int64_t>(p.lo);
      info.lo_strict = p.lo_strict;
      info.has_hi = p.has_hi;
      info.hi = static_cast<int64_t>(p.hi);
      info.hi_strict = p.hi_strict;
      out.push_back(info);
    }
    return out;
  }

  size_t NumPieces() const override {
    return updatable_ == nullptr ? 1 : updatable_->num_pieces();
  }

  std::optional<std::vector<size_t>> TakeSplits() override {
    if (updatable_ == nullptr) return std::nullopt;
    return updatable_->mutable_index()->TakeSplits();
  }

  Status Validate() const override {
    return updatable_ == nullptr ? Status::OK() : updatable_->Validate();
  }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    EnsureBuilt(stats);
    T pivot;
    if constexpr (std::is_floating_point_v<T>) {
      pivot = static_cast<T>(choice.value);
    } else {
      pivot = static_cast<T>(std::clamp(
          choice.value,
          static_cast<int64_t>(std::numeric_limits<T>::min()),
          static_cast<int64_t>(std::numeric_limits<T>::max())));
    }
    updatable_->mutable_index()->ForceCut(
        pivot, /*want_incl=*/choice.after_duplicates, stats);
    return Status::OK();
  }

  std::string Explain() const override {
    std::string out = StrFormat(
        "access path: crack, policy=%s, delta-merge=%s\n",
        CrackPolicyName(engine_.policy()),
        DeltaMergePolicyName(config_.delta_merge.policy));
    if (engine_.policy() == CrackPolicy::kAuto) {
      out += StrFormat(
          "auto: effective=%s, pattern=%s, switches=%llu, samples=%llu\n",
          CrackPolicyName(engine_.effective()),
          WorkloadPatternName(engine_.pattern()),
          static_cast<unsigned long long>(engine_.switches()),
          static_cast<unsigned long long>(engine_.observed_samples()));
    }
    if (engine_.effective() == CrackPolicy::kProgressive) {
      out += StrFormat("progressive: budget=%.3f, pending rows=%zu\n",
                       engine_.options().progressive_budget,
                       PolicyStatus().progressive_pending);
    }
    if (updatable_ == nullptr) {
      if (!pre_build_deletes_.empty()) {
        out += StrFormat("deltas: %zu tombstones buffered pre-build\n",
                         pre_build_deletes_.size());
      }
      return out + "no accelerator yet (never queried)\n";
    }
    const CrackerIndex<T>& inner = updatable_->index();
    out += StrFormat("cracker index: %zu tuples, %zu pieces, %zu boundaries\n",
                     inner.size(), inner.num_pieces(), inner.num_bounds());
    out += StrFormat("deltas: %zu pending inserts, %zu tombstones, "
                     "%zu merges\n",
                     updatable_->pending_inserts(),
                     updatable_->pending_deletes(),
                     updatable_->merges_performed());
    return out + ExplainPieces(Pieces());
  }

  PathPolicyStatus PolicyStatus() const override {
    PathPolicyStatus status;
    status.configured = engine_.policy();
    status.effective = engine_.effective();
    status.pattern = engine_.pattern();
    status.switches = engine_.switches();
    status.samples = engine_.observed_samples();
    status.progressive_budget = engine_.options().progressive_budget;
    status.crack = true;
    const bool ready = config_.concurrent
                           ? built_.load(std::memory_order_acquire)
                           : updatable_ != nullptr;
    if (ready) {
      status.progressive_pending = updatable_->index().progressive_pending();
    }
    return status;
  }

  Status SetPolicyOptions(const CrackPolicyOptions& options) override {
    // Concurrent mode: the owner holds the exclusive column latch, so no
    // select is mid-flight through the engine while it re-arms.
    config_.policy = options;
    engine_.Reset(options);
    return Status::OK();
  }

 private:
  void EnsureBuilt(IoStats* stats) {
    if (updatable_ != nullptr) return;
    UpdatableCrackerIndexOptions opts;
    // The path drives merges per its DeltaMergePolicy; the index's own
    // select-time auto-merge only backs the threshold discipline.
    opts.auto_merge_fraction =
        config_.delta_merge.policy == DeltaMergePolicy::kThreshold
            ? config_.delta_merge.threshold_fraction
            : 0.0;
    updatable_ =
        std::make_unique<UpdatableCrackerIndex<T>>(column_, stats, opts);
    for (Oid oid : pre_build_deletes_) {
      Status st = updatable_->Delete(oid);
      CRACK_DCHECK(st.ok());
      (void)st;
    }
    pre_build_deletes_.clear();
    if (config_.delta_merge.policy == DeltaMergePolicy::kImmediate &&
        updatable_->pending_deletes() > 0) {
      (void)updatable_->Merge(stats);
    }
    SyncDirty();
    // Publish readiness last: shared-mode readers may dereference
    // updatable_ as soon as they observe built_.
    built_.store(true, std::memory_order_release);
  }

  /// Mirrors the delta/accelerator sizes into the latch-free counters the
  /// owner's maintenance poll reads. Callers hold the delta latch or the
  /// exclusive column latch; a no-op in serial mode.
  void SyncDirty() {
    if (!config_.concurrent || updatable_ == nullptr) return;
    dirty_count_.store(
        updatable_->pending_inserts() + updatable_->pending_deletes(),
        std::memory_order_relaxed);
    accel_size_.store(updatable_->index().size(), std::memory_order_relaxed);
  }

  /// Shared-latch selection for the standard policy: concurrent cuts under
  /// piece-granular range locks, answer materialized (never a view — the
  /// data behind a view may be shuffled by a neighbor the moment the span
  /// lock drops).
  AccessSelection SelectShared(T lo, bool lo_incl, T hi, bool hi_incl,
                               bool want_oids, IoStats* stats,
                               const SnapshotView* view) {
    AccessSelection out;
    out.contiguous = false;
    bool versioned = ViewActive(view);
    // Pin the policy once: under kAuto a detector switch may land
    // mid-select, and the two bounds must run the same discipline.
    const CrackPolicy eff = engine_.effective();
    // Stable under the shared latch: swapping the index needs the
    // exclusive latch (Merge/FlushDeltas).
    CrackerIndex<T>* inner = updatable_->mutable_index();
    if (eff == CrackPolicy::kStochastic) {
      // DDC under the shared latch: shrink the enclosing pieces with random
      // pivots before cutting at the bounds, same as the serial path.
      StochasticShrinkConcurrent(lo, /*want_incl=*/!lo_incl, stats);
      StochasticShrinkConcurrent(hi, /*want_incl=*/hi_incl, stats);
    }
    size_t cut_lo = 0;
    size_t cut_hi = 0;
    // Probe first: in steady state both cuts are registered and the select
    // must not pay batch scheduling for two map lookups.
    bool lo_exact = inner->FindCutConcurrent(lo, !lo_incl, &cut_lo);
    bool hi_exact = inner->FindCutConcurrent(hi, hi_incl, &cut_hi);
    bool crack_lo = !lo_exact;
    bool crack_hi = !hi_exact;
    if (eff == CrackPolicy::kProgressive && (crack_lo || crack_hi)) {
      // Budgeted cuts under the shared latch: each bound advances its
      // piece's carried frontier by at most the shared per-query pool. A
      // non-exact frontier stands in as a conservative span edge and the
      // value filter below trims it (the !exact path), exactly like a
      // coarse fuzzy edge.
      std::pair<size_t, size_t> span_lo =
          crack_lo ? inner->PieceSpanForConcurrent(lo)
                   : std::make_pair<size_t, size_t>(0, 0);
      std::pair<size_t, size_t> span_hi =
          crack_hi ? inner->PieceSpanForConcurrent(hi)
                   : std::make_pair<size_t, size_t>(0, 0);
      size_t pool = ProgressivePool(span_lo.second - span_lo.first,
                                    span_hi.second - span_hi.first);
      if (crack_lo) {
        IoStats local;
        ProgressiveCut cut =
            inner->CutProgressiveConcurrent(lo, !lo_incl, pool, &local);
        pool -= std::min(pool, static_cast<size_t>(local.kernel_writes));
        if (stats != nullptr) *stats += local;
        cut_lo = cut.lo;  // conservative: include the open frontier
        lo_exact = cut.exact;
      }
      if (crack_hi) {
        IoStats local;
        ProgressiveCut cut =
            inner->CutProgressiveConcurrent(hi, hi_incl, pool, &local);
        if (stats != nullptr) *stats += local;
        cut_hi = cut.exact ? cut.lo : cut.hi;
        hi_exact = cut.exact;
      }
      crack_lo = crack_hi = false;
    }
    if (eff == CrackPolicy::kCoarse) {
      // DD1C: bounds inside pieces at or below the threshold stay uncracked;
      // the conservative piece edge stands in and the span is filtered by
      // value below. The edge is a registered cut (or 0/n), so it never
      // moves even if a neighbor subdivides the piece meanwhile.
      if (crack_lo) {
        std::pair<size_t, size_t> span = inner->PieceSpanForConcurrent(lo);
        if (!engine_.ShouldCrack(span.second - span.first)) {
          cut_lo = span.first;
          crack_lo = false;
        }
      }
      if (crack_hi) {
        std::pair<size_t, size_t> span = inner->PieceSpanForConcurrent(hi);
        if (!engine_.ShouldCrack(span.second - span.first)) {
          cut_hi = span.second;
          crack_hi = false;
        }
      }
    }
    TaskPool* pool = TaskPool::Global();
    if (crack_lo && crack_hi && pool->num_threads() > 1) {
      // Fan the two crack kernels out across pieces: once the column holds
      // more than one piece the bounds usually land in different pieces,
      // whose shuffles the range locks let proceed concurrently.
      IoStats lo_stats, hi_stats;
      std::vector<std::function<void()>> cuts;
      cuts.emplace_back(
          [&] { cut_lo = inner->CutConcurrent(lo, !lo_incl, &lo_stats); });
      cuts.emplace_back(
          [&] { cut_hi = inner->CutConcurrent(hi, hi_incl, &hi_stats); });
      pool->RunBatch(std::move(cuts));
      if (stats != nullptr) {
        *stats += lo_stats;
        *stats += hi_stats;
      }
      lo_exact = hi_exact = true;
    } else {
      if (crack_lo) {
        cut_lo = inner->CutConcurrent(lo, /*want_incl=*/!lo_incl, stats);
        lo_exact = true;
      }
      if (crack_hi) {
        cut_hi = inner->CutConcurrent(hi, /*want_incl=*/hi_incl, stats);
        hi_exact = true;
      }
    }
    if (cut_hi < cut_lo) cut_hi = cut_lo;
    // Coarse fuzzy edges widen the span past the answer by at most two
    // small pieces; a value filter under the span lock trims them.
    bool exact = lo_exact && hi_exact;

    // Hold the answer span still (no concurrent shuffle inside it) and the
    // delta latch (stable pending list / tombstones) while forming the
    // answer. Cut positions themselves never move once registered.
    RangeLockGuard span = inner->LockRangeShared(cut_lo, cut_hi);
    std::lock_guard<std::mutex> dl(delta_mu_);
    size_t tombstones = updatable_->pending_deletes();
    if (exact && tombstones == 0 && !versioned && !want_oids) {
      out.count = cut_hi - cut_lo;  // positions alone answer the count
    } else {
      const Oid* oid_data = inner->oids()->template TailData<Oid>();
      size_t span_n = cut_hi - cut_lo;
      // Batch the predicate on fuzzy (coarse) edges and the snapshot
      // filter: one RangeMatchMask pass / one version-log latch for the
      // span instead of per-row probes.
      std::vector<uint64_t> match;
      if (!exact) {
        const T* val_data = inner->values()->template TailData<T>();
        match.resize(BitmapWords(span_n));
        RangeMatchMask<T>(val_data + cut_lo, span_n, /*has_lo=*/true, lo,
                          lo_incl, /*has_hi=*/true, hi, hi_incl,
                          match.data());
      }
      std::vector<uint64_t> vis;
      if (versioned) {
        vis.resize(BitmapWords(span_n));
        view->VisibleMask(oid_data + cut_lo, span_n, vis.data());
      }
      if (want_oids) out.oids.reserve(span_n);
      for (size_t i = 0; i < span_n; ++i) {
        Oid oid = oid_data[cut_lo + i];
        if (!exact && !BitmapTest(match.data(), i)) continue;
        if (tombstones > 0 && updatable_->IsDeleted(oid)) continue;
        if (versioned && !BitmapTest(vis.data(), i)) continue;
        ++out.count;
        if (want_oids) out.oids.push_back(oid);
      }
      if (stats != nullptr) stats->tuples_read += span_n;
    }
    for (const auto& [value, oid] : updatable_->pending()) {
      if (!InRange(value, lo, lo_incl, hi, hi_incl)) continue;
      // Snapshot filter only: an updated row is tombstoned at its old
      // position and pending at its new value.
      if (versioned && view->Hides(oid)) continue;
      ++out.count;
      if (want_oids) out.oids.push_back(oid);
    }
    if (stats != nullptr && !updatable_->pending().empty()) {
      stats->tuples_read += updatable_->pending().size();
    }
    ReadmitOverrides<T>(view, lo, lo_incl, hi, hi_incl, want_oids, &out);
    if (want_oids) std::sort(out.oids.begin(), out.oids.end());
    return out;
  }

  /// Reduces the value-exact cracked span [pos, pos + n) plus the delta and
  /// override corrections into `out`. Shared-latch callers hold the range
  /// lock over the span and the delta latch; serial callers need neither.
  void AccumulateSpan(CrackerIndex<T>* inner, size_t pos, size_t n, T lo,
                      bool lo_incl, T hi, bool hi_incl,
                      const SnapshotView* view, IoStats* stats,
                      ColumnAggregates* out) {
    const T* vals = inner->values()->template TailData<T>() + pos;
    const Oid* oid_data = inner->oids()->template TailData<Oid>() + pos;
    SpanAggregates agg = ReduceSpan<T>(
        vals, oid_data, n, updatable_->pending_deletes(),
        [this](Oid oid) { return updatable_->IsDeleted(oid); }, view);
    FoldAggregates<T>(agg, n, updatable_->pending(), lo, lo_incl, hi,
                      hi_incl, view, stats, out);
  }

  /// Shared-latch aggregate pushdown: concurrent value-exact cuts, then the
  /// span reduction under the range lock (span held still) and the delta
  /// latch (stable pending list / tombstones).
  Result<ColumnAggregates> AggregateShared(T lo, bool lo_incl, T hi,
                                           bool hi_incl, IoStats* stats,
                                           const SnapshotView* view) {
    const CrackPolicy eff = engine_.effective();
    if (eff == CrackPolicy::kCoarse || eff == CrackPolicy::kProgressive) {
      // Both answer with fuzzy spans under the shared latch; forcing exact
      // cuts here would crack below the coarse threshold or blow the
      // progressive budget. Callers fall back to the materialized loop.
      return Status::Unimplemented(
          "aggregate pushdown: concurrent coarse/progressive pieces");
    }
    CrackerIndex<T>* inner = updatable_->mutable_index();
    if (eff == CrackPolicy::kStochastic) {
      StochasticShrinkConcurrent(lo, /*want_incl=*/!lo_incl, stats);
      StochasticShrinkConcurrent(hi, /*want_incl=*/hi_incl, stats);
    }
    size_t cut_lo = 0;
    size_t cut_hi = 0;
    if (!inner->FindCutConcurrent(lo, !lo_incl, &cut_lo)) {
      cut_lo = inner->CutConcurrent(lo, /*want_incl=*/!lo_incl, stats);
    }
    if (!inner->FindCutConcurrent(hi, hi_incl, &cut_hi)) {
      cut_hi = inner->CutConcurrent(hi, /*want_incl=*/hi_incl, stats);
    }
    if (cut_hi < cut_lo) cut_hi = cut_lo;
    ColumnAggregates out;
    RangeLockGuard span = inner->LockRangeShared(cut_lo, cut_hi);
    std::lock_guard<std::mutex> dl(delta_mu_);
    AccumulateSpan(inner, cut_lo, cut_hi - cut_lo, lo, lo_incl, hi, hi_incl,
                   view, stats, &out);
    return out;
  }

  Status MaybeMergeOnWrite(IoStats* stats) {
    // Concurrent mode: merges swap the accelerator, which needs the
    // exclusive latch; DML runs under the shared one. The owner polls
    // WantsMaintenance() and flushes under the exclusive latch instead.
    if (config_.concurrent) return Status::OK();
    switch (config_.delta_merge.policy) {
      case DeltaMergePolicy::kImmediate:
        return updatable_->Merge(stats);
      case DeltaMergePolicy::kThreshold:
        if (updatable_->ShouldAutoMerge()) return updatable_->Merge(stats);
        return Status::OK();
      case DeltaMergePolicy::kRippleOnSelect:
        return Status::OK();  // the next selection folds the delta
    }
    return Status::OK();
  }

  void MaybeMergeOnSelect(IoStats* stats) {
    bool dirty =
        updatable_->pending_inserts() + updatable_->pending_deletes() > 0;
    switch (config_.delta_merge.policy) {
      case DeltaMergePolicy::kImmediate:
        break;  // writes already merged
      case DeltaMergePolicy::kThreshold:
        if (updatable_->ShouldAutoMerge()) {
          (void)updatable_->Merge(stats);
        }
        break;
      case DeltaMergePolicy::kRippleOnSelect:
        if (dirty) (void)updatable_->Merge(stats);
        break;
    }
  }

  /// Cracks the piece enclosing `v` at randomly drawn elements until it is
  /// at or below the policy threshold (or no pivot makes progress, e.g. all
  /// duplicates). Skipped when the cut for `v` is already registered.
  void StochasticShrink(T v, bool want_incl, IoStats* stats) {
    CrackerIndex<T>* inner = updatable_->mutable_index();
    size_t pos;
    if (inner->FindCut(v, want_incl, &pos)) return;
    std::pair<size_t, size_t> span = inner->PieceSpanFor(v);
    while (engine_.WantsAuxiliaryPivot(span.second - span.first)) {
      T pivot = inner->values()->template TailData<T>()[engine_.DrawSlot(
          span.first, span.second)];
      inner->ForceCut(pivot, /*want_incl=*/false, stats);
      std::pair<size_t, size_t> next = inner->PieceSpanFor(v);
      if (next == span) break;  // pivot was the piece minimum: no progress
      span = next;
    }
  }

  /// StochasticShrink through the concurrent primitives only (shared-latch
  /// mode). Races are benign: any element read under the cell lock is a
  /// valid pivot (shuffles only permute tuples within a piece), and a
  /// neighbor subdividing the same piece just leaves less auxiliary work
  /// for this thread — the span re-probe observes their cuts too.
  void StochasticShrinkConcurrent(T v, bool want_incl, IoStats* stats) {
    CrackerIndex<T>* inner = updatable_->mutable_index();
    size_t pos;
    if (inner->FindCutConcurrent(v, want_incl, &pos)) return;
    std::pair<size_t, size_t> span = inner->PieceSpanForConcurrent(v);
    while (engine_.WantsAuxiliaryPivot(span.second - span.first)) {
      size_t slot;
      {
        // The policy engine's pivot stream (Pcg32) is not thread-safe.
        std::lock_guard<std::mutex> lk(engine_mu_);
        slot = engine_.DrawSlot(span.first, span.second);
      }
      T pivot = inner->ValueAtConcurrent(slot);
      inner->CutConcurrent(pivot, /*want_incl=*/false, stats);
      std::pair<size_t, size_t> next = inner->PieceSpanForConcurrent(v);
      if (next == span) break;  // pivot was the piece minimum: no progress
      span = next;
    }
  }

  /// DD1C selection: bounds landing in pieces above the threshold crack as
  /// usual; bounds inside small pieces stay uncracked and the enclosing
  /// span is filtered instead.
  void CoarseSelect(T lo, bool lo_incl, T hi, bool hi_incl, bool want_oids,
                    IoStats* stats, AccessSelection* out) {
    CrackerIndex<T>* inner = updatable_->mutable_index();
    size_t cut_lo = 0;
    bool lo_exact = inner->FindCut(lo, /*want_incl=*/!lo_incl, &cut_lo);
    if (lo_exact) {
      inner->TouchBound(lo);  // keep LRU merge budgets honest
    } else {
      std::pair<size_t, size_t> span = inner->PieceSpanFor(lo);
      if (engine_.ShouldCrack(span.second - span.first)) {
        cut_lo = inner->ForceCut(lo, /*want_incl=*/!lo_incl, stats);
        lo_exact = true;
      } else {
        cut_lo = span.first;  // conservative: keep the whole piece
      }
    }
    size_t cut_hi = 0;
    bool hi_exact = inner->FindCut(hi, /*want_incl=*/hi_incl, &cut_hi);
    if (hi_exact) {
      inner->TouchBound(hi);
    } else {
      std::pair<size_t, size_t> span = inner->PieceSpanFor(hi);
      if (engine_.ShouldCrack(span.second - span.first)) {
        cut_hi = inner->ForceCut(hi, /*want_incl=*/hi_incl, stats);
        hi_exact = true;
      } else {
        cut_hi = span.second;  // conservative: keep the whole piece
      }
    }
    if (cut_hi < cut_lo) cut_hi = cut_lo;  // empty result

    if (lo_exact && hi_exact) {
      out->view = CrackSelection{BatView(inner->values(), cut_lo,
                                         cut_hi - cut_lo),
                                 BatView(inner->oids(), cut_lo,
                                         cut_hi - cut_lo)};
      out->count = out->view.count();
      return;
    }

    // At least one fuzzy edge: filter the conservative span. Interior
    // tuples are known-qualifying, but one predicate pass over the span is
    // simpler and the span exceeds the answer by at most two small pieces.
    out->contiguous = false;
    const T* data = inner->values()->template TailData<T>();
    const Oid* oids = inner->oids()->template TailData<Oid>();
    for (size_t i = cut_lo; i < cut_hi; ++i) {
      if (InRange(data[i], lo, lo_incl, hi, hi_incl)) {
        ++out->count;
        if (want_oids) out->oids.push_back(oids[i]);
      }
    }
    if (want_oids) std::sort(out->oids.begin(), out->oids.end());
    if (stats != nullptr) {
      stats->tuples_read += cut_hi - cut_lo;
      if (want_oids) stats->tuples_written += out->count;
    }
  }

  /// The per-query progressive write pool: a budgeted fraction of the
  /// larger touched piece, floored so tiny pieces converge in one pass
  /// instead of crawling (the bench gate measures against budget × piece
  /// size on large columns, where the floor is immaterial).
  static constexpr size_t kMinProgressiveWrites = 256;
  size_t ProgressivePool(size_t span_lo, size_t span_hi) const {
    const double budget = engine_.options().progressive_budget;
    const size_t span = std::max(span_lo, span_hi);
    const size_t pool =
        static_cast<size_t>(budget * static_cast<double>(span));
    return std::max(pool, kMinProgressiveWrites);
  }

  /// Progressive selection (serial): both bounds advance their pieces'
  /// carried frontiers within one shared write pool; open frontiers answer
  /// conservatively via a value filter, mirroring the coarse fuzzy-edge
  /// shape.
  void ProgressiveSelect(T lo, bool lo_incl, T hi, bool hi_incl,
                         bool want_oids, IoStats* stats,
                         AccessSelection* out) {
    CrackerIndex<T>* inner = updatable_->mutable_index();
    std::pair<size_t, size_t> span_lo = inner->PieceSpanFor(lo);
    std::pair<size_t, size_t> span_hi = inner->PieceSpanFor(hi);
    size_t pool = ProgressivePool(span_lo.second - span_lo.first,
                                  span_hi.second - span_hi.first);
    IoStats local;
    ProgressiveCut plo =
        inner->CutProgressive(lo, /*want_incl=*/!lo_incl, pool, &local);
    pool -= std::min(pool, static_cast<size_t>(local.kernel_writes));
    ProgressiveCut phi =
        inner->CutProgressive(hi, /*want_incl=*/hi_incl, pool, &local);
    if (stats != nullptr) *stats += local;

    size_t cut_lo = plo.lo;  // conservative: open frontiers stay included
    size_t cut_hi = phi.exact ? phi.lo : phi.hi;
    if (cut_hi < cut_lo) cut_hi = cut_lo;

    if (plo.exact && phi.exact) {
      out->view = CrackSelection{
          BatView(inner->values(), cut_lo, cut_hi - cut_lo),
          BatView(inner->oids(), cut_lo, cut_hi - cut_lo)};
      out->count = out->view.count();
      return;
    }

    // At least one open frontier: filter the conservative span by value.
    out->contiguous = false;
    const T* data = inner->values()->template TailData<T>();
    const Oid* oids = inner->oids()->template TailData<Oid>();
    for (size_t i = cut_lo; i < cut_hi; ++i) {
      if (InRange(data[i], lo, lo_incl, hi, hi_incl)) {
        ++out->count;
        if (want_oids) out->oids.push_back(oids[i]);
      }
    }
    if (want_oids) std::sort(out->oids.begin(), out->oids.end());
    if (stats != nullptr) {
      stats->tuples_read += cut_hi - cut_lo;
      if (want_oids) stats->tuples_written += out->count;
    }
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  CrackPolicyEngine engine_;
  /// Serializes the policy engine's pivot stream among shared-latch
  /// selects (Pcg32 is not thread-safe). Serial callers bypass it.
  std::mutex engine_mu_;
  std::unique_ptr<UpdatableCrackerIndex<T>> updatable_;
  std::unordered_set<Oid> pre_build_deletes_;  ///< tombstones before build
  // Concurrent-mode state (inert in serial mode).
  std::atomic<bool> built_{false};     ///< updatable_ is safe to dereference
  mutable std::mutex delta_mu_;        ///< guards the delta structures
  std::atomic<size_t> dirty_count_{0};  ///< pending inserts + tombstones
  std::atomic<size_t> accel_size_{0};   ///< tuples in the cracker column
};

// --- sort -----------------------------------------------------------------

template <typename T>
class SortAccessPath : public ColumnAccessPath {
 public:
  SortAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)), config_(config) {}

  AccessStrategy strategy() const override { return AccessStrategy::kSort; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    return PathConcurrency::kSharedReads;
  }

  bool SharedSelectReady() const override {
    return built_.load(std::memory_order_acquire);
  }

  bool WantsMaintenance() const override {
    if (!config_.concurrent || !built_.load(std::memory_order_acquire)) {
      return false;
    }
    return MaintenanceDue(config_.delta_merge,
                          dirty_count_.load(std::memory_order_relaxed),
                          accel_size_.load(std::memory_order_relaxed));
  }

  AccessSelection Select(const RangeBounds& range, bool want_oids,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    bool shared_mode =
        config_.concurrent && built_.load(std::memory_order_acquire);
    if (sorted_ == nullptr) {
      sorted_ = std::make_unique<SortedColumn<T>>(column_, stats);
      accel_size_.store(sorted_->size(), std::memory_order_relaxed);
      built_.store(true, std::memory_order_release);
    }
    if (!config_.concurrent) MaybeMergeOnSelect(stats);
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
    AccessSelection out;
    out.contiguous = true;
    // Binary search over the sorted copy: read-only, so safe under the
    // shared latch (the copy is only replaced under the exclusive one).
    out.view = sorted_->Select(lo, lo_incl, hi, hi_incl, stats);
    out.count = out.view.count();
    // One span over the sorted copy's oid map. The sorted copy never
    // shuffles under shared readers (replacing it takes the exclusive
    // latch), so the span set is valid for as long as the selection is —
    // consumers drain it before the column latch drops.
    if (out.view.oids.bat() != nullptr) {
      out.span_set.BindOidMap(out.view.oids.bat());
      out.span_set.AddSpan(out.view.oids.offset(),
                           out.view.oids.offset() + out.view.oids.size());
      out.has_span_set = true;
    }
    {
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (shared_mode) dl.lock();
      OverlayDeltaAnswer<T>(
          pending_, deleted_.size(),
          [this](Oid oid) { return deleted_.count(oid) > 0; }, lo, lo_incl,
          hi, hi_incl, want_oids, view, stats, &out);
    }
    // A clean answer stays a contiguous view: unlike a cracker column, the
    // sorted copy never shuffles under shared readers, so the view is
    // stable for as long as the caller holds the (shared) column latch.
    return out;
  }

  Result<ColumnAggregates> AggregateRange(
      const RangeBounds& range, IoStats* stats,
      const SnapshotView* view = nullptr) override {
    if constexpr (std::is_floating_point_v<T>) {
      (void)range;
      (void)stats;
      (void)view;
      return Status::Unimplemented(
          "aggregate pushdown: non-integer column domain");
    } else {
      T lo, hi;
      bool lo_incl, hi_incl;
      ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
      ColumnAggregates out;
      if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
      bool shared_mode =
          config_.concurrent && built_.load(std::memory_order_acquire);
      if (sorted_ == nullptr) {
        sorted_ = std::make_unique<SortedColumn<T>>(column_, stats);
        accel_size_.store(sorted_->size(), std::memory_order_relaxed);
        built_.store(true, std::memory_order_release);
      }
      if (!config_.concurrent) MaybeMergeOnSelect(stats);
      // Binary search bounds the answer span; the reduction reads the
      // sorted copy, which only the exclusive latch replaces.
      CrackSelection sel = sorted_->Select(lo, lo_incl, hi, hi_incl, stats);
      const T* vals = sel.values.template data<T>();
      const Oid* oid_data = sel.oids.template data<Oid>();
      size_t n = sel.values.size();
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (shared_mode) dl.lock();
      SpanAggregates agg = ReduceSpan<T>(
          vals, oid_data, n, deleted_.size(),
          [this](Oid oid) { return deleted_.count(oid) > 0; }, view);
      FoldAggregates<T>(agg, n, pending_, lo, lo_incl, hi, hi_incl, view,
                        stats, &out);
      return out;
    }
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (sorted_ == nullptr) return Status::OK();  // lazy build reads base
    {
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (config_.concurrent) dl.lock();
      pending_.emplace_back(CastValue<T>(value), oid);
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status Delete(Oid oid, IoStats* stats) override {
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    if (purged_.count(oid) > 0) return AlreadyDeletedError(oid);
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [oid](const auto& p) { return p.second == oid; });
    if (it != pending_.end()) {
      // Cancel the pending insert; the oid joins the physically-gone set so
      // a later Update()/Delete() sees a dead row, not a merged tuple.
      pending_.erase(it);
      purged_.insert(oid);
      SyncDirty();
      return Status::OK();
    }
    if (!deleted_.insert(oid).second) return AlreadyDeletedError(oid);
    SyncDirty();
    if (sorted_ == nullptr) return Status::OK();  // filtered until a merge
    if (dl.owns_lock()) dl.unlock();
    return MaybeMergeOnWrite(stats);
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    if (sorted_ == nullptr) return Status::OK();  // base slot overwritten
    {
      std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
      if (config_.concurrent) dl.lock();
      auto it = std::find_if(pending_.begin(), pending_.end(),
                             [oid](const auto& p) { return p.second == oid; });
      if (it != pending_.end()) {
        it->first = CastValue<T>(value);
        return Status::OK();
      }
      if (purged_.count(oid) > 0 || deleted_.count(oid) > 0) {
        return Status::NotFound(
            StrFormat("oid %llu is deleted",
                      static_cast<unsigned long long>(oid)));
      }
      deleted_.insert(oid);
      pending_.emplace_back(CastValue<T>(value), oid);
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status FlushDeltas(IoStats* stats) override {
    if (sorted_ == nullptr && pending_.empty() && deleted_.empty()) {
      return Status::OK();
    }
    if (sorted_ == nullptr) {
      sorted_ = std::make_unique<SortedColumn<T>>(column_, stats);
      accel_size_.store(sorted_->size(), std::memory_order_relaxed);
      built_.store(true, std::memory_order_release);
    }
    return MergeDeltas(stats);
  }

  size_t pending_inserts() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return pending_.size();
  }
  size_t pending_deletes() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return deleted_.size();
  }
  size_t merges_performed() const override { return merges_; }

  size_t accel_tuples() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return sorted_ == nullptr ? 0 : sorted_->size();
  }

  std::vector<PieceInfo> Pieces() const override {
    return WholeColumnPiece(column_->size());
  }
  size_t NumPieces() const override { return 1; }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    (void)choice;
    (void)stats;
    return Status::Unimplemented(
        "sort access path has no piece table to crack");
  }

  std::string Explain() const override {
    std::string out = StrFormat("access path: sort, delta-merge=%s\n",
                                DeltaMergePolicyName(
                                    config_.delta_merge.policy));
    if (sorted_ == nullptr) {
      return out + "no accelerator yet (never queried)\n";
    }
    out += "sorted copy present (binary-search access)\n";
    out += StrFormat("deltas: %zu pending inserts, %zu tombstones, "
                     "%zu merges\n",
                     pending_.size(), deleted_.size(), merges_);
    return out;
  }

 private:
  /// See CrackAccessPath::SyncDirty. Callers hold the delta latch or the
  /// exclusive column latch; a no-op in serial mode.
  void SyncDirty() {
    if (!config_.concurrent) return;
    dirty_count_.store(pending_.size() + deleted_.size(),
                       std::memory_order_relaxed);
  }

  Status MaybeMergeOnWrite(IoStats* stats) {
    // Concurrent mode: merging swaps the sorted copy (exclusive latch);
    // the owner's maintenance hook does it via FlushDeltas.
    if (config_.concurrent) return Status::OK();
    if (config_.delta_merge.policy == DeltaMergePolicy::kImmediate ||
        (config_.delta_merge.policy == DeltaMergePolicy::kThreshold &&
         OverThreshold())) {
      return MergeDeltas(stats);
    }
    return Status::OK();
  }

  void MaybeMergeOnSelect(IoStats* stats) {
    bool dirty = !pending_.empty() || !deleted_.empty();
    if (!dirty) return;
    // kImmediate also folds here: tombstones buffered before the lazy build
    // could not merge at write time (there was nothing to merge into).
    if (config_.delta_merge.policy == DeltaMergePolicy::kRippleOnSelect ||
        config_.delta_merge.policy == DeltaMergePolicy::kImmediate ||
        (config_.delta_merge.policy == DeltaMergePolicy::kThreshold &&
         OverThreshold())) {
      (void)MergeDeltas(stats);
    }
  }

  bool OverThreshold() const {
    double fraction = config_.delta_merge.threshold_fraction;
    if (fraction <= 0 || sorted_ == nullptr) return false;
    return pending_.size() + deleted_.size() >
           static_cast<size_t>(fraction *
                               static_cast<double>(sorted_->size()));
  }

  /// Folds deltas back by merging two sorted runs: the surviving sorted
  /// copy (minus tombstones) and the value-sorted pending inserts. The
  /// result adopts fresh (values, oids) columns — O(n + d log d), no resort
  /// of the bulk.
  Status MergeDeltas(IoStats* stats) {
    if (pending_.empty() && deleted_.empty()) return Status::OK();
    std::sort(pending_.begin(), pending_.end());
    size_t old_n = sorted_->size();
    auto values = Bat::Create(TypeTraits<T>::kType,
                              column_->name() + "#sorted");
    auto oids = Bat::Create(ValueType::kOid, column_->name() + "#sortedmap");
    values->Reserve(old_n + pending_.size());
    oids->Reserve(old_n + pending_.size());
    T* vd = values->template MutableTailData<T>();
    Oid* od = oids->template MutableTailData<Oid>();
    const T* src_v = sorted_->values()->template TailData<T>();
    const Oid* src_o = sorted_->oids()->template TailData<Oid>();
    size_t w = 0;
    size_t p = 0;
    for (size_t i = 0; i < old_n; ++i) {
      if (!deleted_.empty() && deleted_.count(src_o[i]) > 0) continue;
      while (p < pending_.size() && pending_[p].first < src_v[i]) {
        vd[w] = pending_[p].first;
        od[w] = pending_[p].second;
        ++w;
        ++p;
      }
      vd[w] = src_v[i];
      od[w] = src_o[i];
      ++w;
    }
    for (; p < pending_.size(); ++p) {
      vd[w] = pending_[p].first;
      od[w] = pending_[p].second;
      ++w;
    }
    values->SetCountUnsafe(w);
    oids->SetCountUnsafe(w);
    if (stats != nullptr) {
      stats->tuples_read += old_n + pending_.size();
      stats->tuples_written += w;
    }
    sorted_ = std::make_unique<SortedColumn<T>>(std::move(values),
                                                std::move(oids));
    // Only tombstones without a pending rebirth (an Update leaves both) are
    // physically gone; remember them so later writes report the row dead.
    std::unordered_set<Oid> reborn;
    reborn.reserve(pending_.size());
    for (const auto& [value, oid] : pending_) reborn.insert(oid);
    for (Oid oid : deleted_) {
      if (reborn.count(oid) == 0) purged_.insert(oid);
    }
    pending_.clear();
    deleted_.clear();
    ++merges_;
    obs::RecordMerge(w);
    SyncDirty();
    accel_size_.store(sorted_->size(), std::memory_order_relaxed);
    return Status::OK();
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  std::unique_ptr<SortedColumn<T>> sorted_;
  std::vector<std::pair<T, Oid>> pending_;  ///< inserts since the last merge
  std::unordered_set<Oid> deleted_;         ///< tombstones since the last merge
  std::unordered_set<Oid> purged_;  ///< oids physically gone (merged away)
  size_t merges_ = 0;
  // Concurrent-mode state (inert in serial mode).
  std::atomic<bool> built_{false};      ///< sorted_ is safe to dereference
  mutable std::mutex delta_mu_;         ///< guards the delta structures
  std::atomic<size_t> dirty_count_{0};  ///< pending inserts + tombstones
  std::atomic<size_t> accel_size_{0};   ///< tuples in the sorted copy
};

// --- scan -----------------------------------------------------------------

template <typename T>
class ScanAccessPath : public ColumnAccessPath {
 public:
  ScanAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)), config_(config) {}

  AccessStrategy strategy() const override { return AccessStrategy::kScan; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    return PathConcurrency::kSharedReads;
  }

  // Stateless from birth: shared selections need no accelerator.
  bool SharedSelectReady() const override { return true; }

  AccessSelection Select(const RangeBounds& range, bool want_oids,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
    AccessSelection out;
    bool versioned = ViewActive(view);
    // Concurrent mode: snapshot the tombstone set under the delta latch,
    // then scan latch-free — holding the latch across the O(n) loop would
    // serialize every concurrent scan on this column (the base data itself
    // is covered by the owner's table base latch).
    std::unordered_set<Oid> snapshot;
    const std::unordered_set<Oid>* tombs = &deleted_;
    if (config_.concurrent) {
      std::lock_guard<std::mutex> dl(delta_mu_);
      snapshot = deleted_;
      tombs = &snapshot;
    }
    const T* data = column_->TailData<T>();
    size_t n = column_->size();
    Oid base = column_->head_base();
    // Branchless scan: one vectorized range bitmap, AND-ed with one batch
    // visibility bitmap (a single version-log latch acquisition instead of
    // one per row), tombstones cleared bit-wise — then popcount for the
    // count and bit-iterate for the oid gather.
    std::vector<uint64_t> match(BitmapWords(n));
    RangeMatchMask<T>(data, n, /*has_lo=*/true, lo, lo_incl, /*has_hi=*/true,
                      hi, hi_incl, match.data());
    if (versioned) {
      std::vector<uint64_t> vis(BitmapWords(n));
      view->VisibleRangeMask(base, n, vis.data());
      for (size_t w = 0; w < match.size(); ++w) match[w] &= vis[w];
    }
    if (!tombs->empty()) {
      for (Oid oid : *tombs) {
        if (oid >= base && oid - base < n) {
          BitmapClearBit(match.data(), size_t(oid - base));
        }
      }
    }
    out.count = BitmapCount(match.data(), n);
    // Runs of matching rows become identity spans (oid = base + position):
    // clustered data scans to a handful of spans, and downstream consumers
    // (counts, intersections) never need the oid list below.
    out.span_set = OidSpanSet::FromMatchBitmap(match.data(), n, base);
    out.has_span_set = true;
    if (want_oids) {
      out.oids.reserve(out.count);
      for (size_t w = 0; w < match.size(); ++w) {
        uint64_t m = match[w];
        while (m != 0) {
          size_t i = (w << 6) + size_t(__builtin_ctzll(m));
          out.oids.push_back(base + i);
          m &= m - 1;
        }
      }
    }
    ReadmitOverrides<T>(view, lo, lo_incl, hi, hi_incl, want_oids, &out);
    if (versioned && want_oids) std::sort(out.oids.begin(), out.oids.end());
    if (stats != nullptr) {
      stats->tuples_read += n;
      if (want_oids) stats->tuples_written += out.count;
    }
    return out;
  }

  Result<ColumnAggregates> AggregateRange(
      const RangeBounds& range, IoStats* stats,
      const SnapshotView* view = nullptr) override {
    if constexpr (std::is_floating_point_v<T>) {
      (void)range;
      (void)stats;
      (void)view;
      return Status::Unimplemented(
          "aggregate pushdown: non-integer column domain");
    } else {
      T lo, hi;
      bool lo_incl, hi_incl;
      ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
      ColumnAggregates out;
      if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
      std::unordered_set<Oid> snapshot;
      const std::unordered_set<Oid>* tombs = &deleted_;
      if (config_.concurrent) {
        std::lock_guard<std::mutex> dl(delta_mu_);
        snapshot = deleted_;
        tombs = &snapshot;
      }
      const T* data = column_->TailData<T>();
      size_t n = column_->size();
      Oid base = column_->head_base();
      bool versioned = ViewActive(view);
      // Same branchless mask pipeline as Select, but the finished bitmap
      // feeds the masked reduction kernel instead of a bit-iterate oid
      // gather — the whole column is the pushdown span.
      std::vector<uint64_t> match(BitmapWords(n));
      RangeMatchMask<T>(data, n, /*has_lo=*/true, lo, lo_incl,
                        /*has_hi=*/true, hi, hi_incl, match.data());
      if (versioned) {
        std::vector<uint64_t> vis(BitmapWords(n));
        view->VisibleRangeMask(base, n, vis.data());
        for (size_t w = 0; w < match.size(); ++w) match[w] &= vis[w];
      }
      for (Oid oid : *tombs) {
        if (oid >= base && oid - base < n) {
          BitmapClearBit(match.data(), size_t(oid - base));
        }
      }
      SpanAggregates agg = AggregateSpanMasked(data, n, match.data());
      FoldAggregates<T>(agg, n, {}, lo, lo_incl, hi, hi_incl, view, stats,
                        &out);
      return out;
    }
  }

  // The base column carries inserts (appended) and updates (overwritten in
  // place); the only delta a scan must remember is the tombstone set.
  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    (void)value;
    (void)oid;
    (void)stats;
    return Status::OK();
  }

  Status Delete(Oid oid, IoStats* stats) override {
    (void)stats;
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    if (!deleted_.insert(oid).second) return AlreadyDeletedError(oid);
    return Status::OK();
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    (void)oid;
    (void)value;
    (void)stats;
    return Status::OK();
  }

  Status FlushDeltas(IoStats* stats) override {
    (void)stats;
    return Status::OK();  // tombstones are the scan's terminal state
  }

  size_t pending_inserts() const override { return 0; }
  size_t pending_deletes() const override {
    std::unique_lock<std::mutex> dl(delta_mu_, std::defer_lock);
    if (config_.concurrent) dl.lock();
    return deleted_.size();
  }
  size_t merges_performed() const override { return 0; }

  std::vector<PieceInfo> Pieces() const override {
    return WholeColumnPiece(column_->size());
  }
  size_t NumPieces() const override { return 1; }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    (void)choice;
    (void)stats;
    return Status::Unimplemented(
        "scan access path has no piece table to crack");
  }

  std::string Explain() const override {
    std::string out =
        "access path: scan\nno auxiliary structure (full scan per query)\n";
    if (!deleted_.empty()) {
      out += StrFormat("deltas: %zu tombstones filtered per scan\n",
                       deleted_.size());
    }
    return out;
  }

 private:
  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  std::unordered_set<Oid> deleted_;
  mutable std::mutex delta_mu_;  ///< guards deleted_ (concurrent mode only)
};

template <typename T>
std::unique_ptr<ColumnAccessPath> MakePath(std::shared_ptr<Bat> column,
                                           const AccessPathConfig& config) {
  switch (config.strategy) {
    case AccessStrategy::kScan:
      return std::make_unique<ScanAccessPath<T>>(std::move(column), config);
    case AccessStrategy::kCrack:
      return std::make_unique<CrackAccessPath<T>>(std::move(column), config);
    case AccessStrategy::kSort:
      return std::make_unique<SortAccessPath<T>>(std::move(column), config);
  }
  return nullptr;
}

// --- dict-string ----------------------------------------------------------

/// Encoding decorator for kString columns: an order-preserving dictionary
/// presents the column as an int64 code domain, a shadow code column
/// mirrors the base row-for-row, and an inner numeric path (any strategy x
/// policy) cracks/sorts/scans the codes. String predicates arrive through
/// SelectTyped and translate to code ranges; DML interns unseen strings,
/// and when an out-of-order insert exhausts its code gap the dictionary's
/// remap hook folds the inner deltas through the existing Merge machinery,
/// rewrites the code column monotonically, and re-arms a fresh lazy
/// accelerator.
class DictStringAccessPath : public ColumnAccessPath {
 public:
  DictStringAccessPath(std::shared_ptr<Bat> column,
                       const AccessPathConfig& config)
      : column_(std::move(column)), config_(config), inner_config_(config) {
    // The wrapper is exclusive-only under concurrency (the dictionary has
    // no internal locking and a gap-exhaustion remap swaps the whole inner
    // path), so the inner numeric path keeps serial semantics — its inline
    // merges are safe under the wrapper's exclusive column latch.
    inner_config_.concurrent = false;
  }

  AccessStrategy strategy() const override { return config_.strategy; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  // Inherited concurrency defaults are exactly right for this wrapper:
  // kExclusiveOnly, never shared-ready, no owner-driven maintenance.

  AccessSelection Select(const RangeBounds& range, bool want_oids,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    // Native-domain selection: the bounds are dictionary codes.
    EnsureEncoded(stats);
    SnapshotView code_view;
    return inner_->Select(range, want_oids, stats,
                          TranslateView(view, stats, &code_view));
  }

  Result<AccessSelection> SelectTyped(const TypedRange& range, bool want_oids,
                                      IoStats* stats,
                                      const SnapshotView* view = nullptr)
      override {
    if ((!range.lo.is_null() && !range.lo.is_string()) ||
        (!range.hi.is_null() && !range.hi.is_string())) {
      return Status::TypeMismatch(
          StrFormat("numeric predicate on string column %s",
                    column_->name().c_str()));
    }
    EnsureEncoded(stats);
    // Translate the view before the bounds: interning an unseen override
    // value may remap the whole code domain, which would stale previously
    // computed code bounds.
    SnapshotView code_view;
    const SnapshotView* inner_view = TranslateView(view, stats, &code_view);
    RangeBounds codes;  // defaults: unbounded both sides
    if (!range.lo.is_null()) {
      int64_t code;
      if (dict_->CodeFor(range.lo.AsString(), &code)) {
        codes.lo = code;
        codes.lo_incl = range.lo_incl;
      } else if (dict_->CeilCode(range.lo.AsString(), &code)) {
        // Absent bound: >s and >=s agree on the interned domain.
        codes.lo = code;
        codes.lo_incl = true;
      } else {
        return AccessSelection{};  // sorts after every string: empty
      }
    }
    if (!range.hi.is_null()) {
      int64_t code;
      if (dict_->CodeFor(range.hi.AsString(), &code)) {
        codes.hi = code;
        codes.hi_incl = range.hi_incl;
      } else if (dict_->FloorCode(range.hi.AsString(), &code)) {
        codes.hi = code;
        codes.hi_incl = true;
      } else {
        return AccessSelection{};  // sorts before every string: empty
      }
    }
    return inner_->Select(codes, want_oids, stats, inner_view);
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (!value.is_string()) {
      return Status::TypeMismatch(
          StrFormat("cannot insert %s into string column %s",
                    value.ToString().c_str(), column_->name().c_str()));
    }
    if (inner_ == nullptr) return Status::OK();  // lazy encode reads base
    int64_t code = Intern(value.AsString(), stats);
    codes_->Append<int64_t>(code);
    return inner_->Insert(Value(code), oid, stats);
  }

  Status Delete(Oid oid, IoStats* stats) override {
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    // The all-time tombstone set is the wrapper's own: the shadow code
    // column is append-only, so a rebuilt inner path must re-learn every
    // historical delete.
    if (!deleted_.insert(oid).second) return AlreadyDeletedError(oid);
    if (inner_ == nullptr) return Status::OK();
    Status st = inner_->Delete(oid, stats);
    if (!st.ok()) deleted_.erase(oid);  // keep the replay set replayable
    return st;
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    if (!value.is_string()) {
      return Status::TypeMismatch(
          StrFormat("cannot update string column %s with %s",
                    column_->name().c_str(), value.ToString().c_str()));
    }
    if (inner_ == nullptr) return Status::OK();  // base slot overwritten
    int64_t code = Intern(value.AsString(), stats);
    CRACK_RETURN_NOT_OK(codes_->SetNumeric(
        static_cast<size_t>(oid - codes_->head_base()), code));
    return inner_->Update(oid, Value(code), stats);
  }

  Status FlushDeltas(IoStats* stats) override {
    if (inner_ == nullptr && deleted_.empty()) return Status::OK();
    EnsureEncoded(stats);
    return inner_->FlushDeltas(stats);
  }

  size_t pending_inserts() const override {
    return inner_ == nullptr ? 0 : inner_->pending_inserts();
  }
  size_t pending_deletes() const override {
    return inner_ == nullptr ? deleted_.size() : inner_->pending_deletes();
  }
  size_t merges_performed() const override {
    return merges_carry_ +
           (inner_ == nullptr ? 0 : inner_->merges_performed());
  }

  size_t accel_tuples() const override {
    return inner_ == nullptr ? 0 : inner_->accel_tuples();
  }

  std::vector<PieceInfo> Pieces() const override {
    if (inner_ == nullptr) return WholeColumnPiece(column_->size());
    return inner_->Pieces();  // code-domain value decorations
  }
  size_t NumPieces() const override {
    return inner_ == nullptr ? 1 : inner_->NumPieces();
  }
  std::optional<std::vector<size_t>> TakeSplits() override {
    if (inner_ == nullptr) return std::nullopt;
    return inner_->TakeSplits();
  }
  Status Validate() const override {
    return inner_ == nullptr ? Status::OK() : inner_->Validate();
  }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    EnsureEncoded(stats);
    return inner_->ApplyPolicy(choice, stats);  // pivot in the code domain
  }

  std::string Explain() const override {
    std::string out = StrFormat(
        "encoding: order-preserving dictionary over %s\n",
        column_->name().c_str());
    if (inner_ == nullptr) {
      if (!deleted_.empty()) {
        out += StrFormat("deltas: %zu tombstones buffered pre-encode\n",
                         deleted_.size());
      }
      return out + "no code column yet (never queried)\n";
    }
    out += StrFormat("dictionary: %zu distinct strings, gap=%lld, "
                     "%zu rebuild(s)\n",
                     dict_->size(), static_cast<long long>(dict_->gap()),
                     dict_->rebuilds());
    return out + inner_->Explain();
  }

  PathPolicyStatus PolicyStatus() const override {
    if (inner_ != nullptr) return inner_->PolicyStatus();
    PathPolicyStatus s;
    s.configured = config_.policy.policy;
    s.effective = config_.policy.policy;
    s.progressive_budget = config_.policy.progressive_budget;
    s.crack = config_.strategy == AccessStrategy::kCrack;
    return s;
  }

  Status SetPolicyOptions(const CrackPolicyOptions& options) override {
    config_.policy = options;
    inner_config_.policy = options;
    if (inner_ != nullptr) return inner_->SetPolicyOptions(options);
    return Status::OK();
  }

 private:
  /// Translates the facade's string-valued overrides into the inner path's
  /// code domain (order-preserving, so range membership is preserved).
  /// Returns nullptr when the view is inactive; otherwise fills *storage
  /// and returns it. Unseen old values (an accelerator reset can outlive
  /// the version log) intern on demand — EnsureEncoded has already run, so
  /// a gap-exhaustion remap stays safely before the inner selection.
  const SnapshotView* TranslateView(const SnapshotView* view, IoStats* stats,
                                    SnapshotView* storage) {
    if (view == nullptr || !view->active()) return nullptr;
    if (view->overrides().empty()) return view;
    // Interning an unseen value can exhaust a code gap and remap the whole
    // code domain, which would stale codes translated earlier in this very
    // loop — restart the translation whenever a rebuild fires.
    std::vector<std::pair<Oid, Value>> code_overrides;
    bool remapped = true;
    while (remapped) {
      remapped = false;
      code_overrides.clear();
      code_overrides.reserve(view->overrides().size());
      size_t rebuilds = dict_->rebuilds();
      for (const auto& [oid, value] : view->overrides()) {
        if (!value.is_string()) {
          code_overrides.emplace_back(oid, value);  // already numeric
          continue;
        }
        int64_t code;
        if (!dict_->CodeFor(value.AsString(), &code)) {
          code = Intern(value.AsString(), stats);
          if (dict_->rebuilds() != rebuilds) {
            remapped = true;  // earlier translations are stale
            break;
          }
        }
        code_overrides.emplace_back(oid, Value(code));
      }
    }
    *storage = view->WithOverrides(std::move(code_overrides));
    return storage;
  }

  /// Lazily builds the dictionary, the shadow code column and the inner
  /// path — the whole encoding investment is charged to the first query.
  void EnsureEncoded(IoStats* stats) {
    if (inner_ != nullptr) return;
    auto dict = StringDictionary::FromColumn(*column_);
    CRACK_DCHECK(dict.ok());
    dict_ = std::make_unique<StringDictionary>(std::move(*dict));
    codes_ = Bat::Create(ValueType::kInt64, column_->name() + "#codes");
    codes_->set_head_base(column_->head_base());
    size_t n = column_->size();
    codes_->Reserve(n);
    int64_t* d = codes_->MutableTailData<int64_t>();
    const std::shared_ptr<VarHeap>& heap = column_->heap();
    const uint64_t* offsets = column_->TailData<uint64_t>();
    for (size_t i = 0; i < n; ++i) {
      int64_t code = 0;
      bool known = dict_->CodeFor(heap->Read(offsets[i]), &code);
      CRACK_DCHECK(known);
      (void)known;
      d[i] = code;
    }
    codes_->SetCountUnsafe(n);
    if (stats != nullptr) {
      stats->tuples_read += n;
      stats->tuples_written += n;
    }
    RebuildInner(stats);
  }

  /// Interns `s`, wiring the dictionary's rebuild path into this column's
  /// remap procedure.
  int64_t Intern(std::string_view s, IoStats* stats) {
    return dict_->InternOrdered(
        s, [this, stats](const StringDictionary::RemapMap& remap) {
          RemapCodes(remap, stats);
        });
  }

  /// A code-gap exhausted: every code was reassigned (monotonically).
  /// Rewrite the shadow column through the mapping and re-arm a fresh lazy
  /// inner path over the new codes. No flush is needed before the swap:
  /// pending inserts/updates are already physically in codes_ (the wrapper
  /// mutates codes_ before notifying the inner path) and tombstones replay
  /// from the wrapper's all-time deleted_ set, so the rebuilt path folds
  /// them through the ordinary Merge machinery on its next merge.
  void RemapCodes(const StringDictionary::RemapMap& remap, IoStats* stats) {
    // +1 counts the accelerator hand-over as a merge even when nothing was
    // pending: the piece table starts over.
    merges_carry_ += inner_->merges_performed() + 1;
    int64_t* d = codes_->MutableTailData<int64_t>();
    for (size_t i = 0; i < codes_->size(); ++i) {
      auto it = remap.find(d[i]);
      CRACK_DCHECK(it != remap.end());
      d[i] = it->second;
    }
    if (stats != nullptr) stats->tuples_written += codes_->size();
    RebuildInner(stats);
  }

  /// (Re)creates the inner numeric path over the code column and replays
  /// the all-time tombstones into it.
  void RebuildInner(IoStats* stats) {
    (void)stats;
    inner_ = MakePath<int64_t>(codes_, inner_config_);
    for (Oid oid : deleted_) {
      Status st = inner_->Delete(oid);
      CRACK_DCHECK(st.ok());
      (void)st;
    }
  }

  std::shared_ptr<Bat> column_;  ///< the kString base (append-only)
  AccessPathConfig config_;
  AccessPathConfig inner_config_;  ///< config_ with concurrent forced off
  std::unique_ptr<StringDictionary> dict_;
  std::shared_ptr<Bat> codes_;  ///< int64 shadow, row-parallel to the base
  std::unique_ptr<ColumnAccessPath> inner_;
  std::unordered_set<Oid> deleted_;  ///< all-time tombstones (replayable)
  size_t merges_carry_ = 0;  ///< merges of discarded inner paths (+rebuilds)
};

}  // namespace

Result<std::unique_ptr<ColumnAccessPath>> CreateColumnAccessPath(
    std::shared_ptr<Bat> column, const AccessPathConfig& config) {
  if (column == nullptr) return Status::InvalidArgument("null column");
  switch (column->tail_type()) {
    case ValueType::kInt32:
      return MakePath<int32_t>(std::move(column), config);
    case ValueType::kInt64:
      return MakePath<int64_t>(std::move(column), config);
    case ValueType::kFloat64:
      return MakePath<double>(std::move(column), config);
    case ValueType::kString:
      return std::unique_ptr<ColumnAccessPath>(
          std::make_unique<DictStringAccessPath>(std::move(column), config));
    default:
      return Status::Unimplemented(
          StrFormat("no access path for %s columns",
                    ValueTypeName(column->tail_type())));
  }
}

namespace {

/// FilterCandidates over a numeric column: gathers one block of candidate
/// values at a time (snapshot overrides substituted), masks the block with
/// the vectorized range kernel, and compacts the survivors in place.
template <typename T>
void FilterNumericCandidates(
    const Bat& column, const RangeBounds& range,
    const std::vector<std::pair<Oid, Value>>& overrides,
    std::vector<Oid>* candidates) {
  T lo, hi;
  bool lo_incl, hi_incl;
  ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
  std::unordered_map<Oid, T> overridden;
  for (const auto& [oid, value] : overrides) {
    overridden.emplace(oid, CastValue<T>(value));
  }
  constexpr size_t kBlock = 1024;
  T vals[kBlock];
  uint64_t bm[kBlock / 64];
  const T* data = column.TailData<T>();
  const Oid base = column.head_base();
  Oid* oids = candidates->data();
  size_t kept = 0;
  for (size_t b = 0; b < candidates->size(); b += kBlock) {
    const size_t m = std::min(kBlock, candidates->size() - b);
    for (size_t i = 0; i < m; ++i) vals[i] = data[oids[b + i] - base];
    if (!overridden.empty()) {
      for (size_t i = 0; i < m; ++i) {
        auto it = overridden.find(oids[b + i]);
        if (it != overridden.end()) vals[i] = it->second;
      }
    }
    RangeMatchMask<T>(vals, m, /*has_lo=*/true, lo, lo_incl, /*has_hi=*/true,
                      hi, hi_incl, bm);
    for (size_t i = 0; i < m; ++i) {
      oids[kept] = oids[b + i];
      kept += BitmapTest(bm, i) ? 1 : 0;
    }
  }
  candidates->resize(kept);
}

}  // namespace

Status FilterCandidates(const Bat& column, const TypedRange& range,
                        const std::vector<std::pair<Oid, Value>>& overrides,
                        std::vector<Oid>* candidates, IoStats* stats) {
  const bool numeric_bound = (!range.lo.is_null() && !range.lo.is_string()) ||
                             (!range.hi.is_null() && !range.hi.is_string());
  if (column.tail_type() == ValueType::kString ? numeric_bound
                                               : range.has_string()) {
    return Status::TypeMismatch(StrFormat(
        "%s predicate on %s column %s", numeric_bound ? "numeric" : "string",
        ValueTypeName(column.tail_type()), column.name().c_str()));
  }
  if (stats != nullptr) stats->tuples_read += candidates->size();
  switch (column.tail_type()) {
    case ValueType::kInt32:
      FilterNumericCandidates<int32_t>(column, range.ToNumericBounds(),
                                       overrides, candidates);
      return Status::OK();
    case ValueType::kInt64:
      FilterNumericCandidates<int64_t>(column, range.ToNumericBounds(),
                                       overrides, candidates);
      return Status::OK();
    case ValueType::kFloat64:
      FilterNumericCandidates<double>(column, range.ToNumericBounds(),
                                      overrides, candidates);
      return Status::OK();
    case ValueType::kString: {
      // Bytewise order is the dictionary's order, so this keeps exactly
      // the rows whose codes the encoded path would answer.
      std::unordered_map<Oid, std::string_view> overridden;
      for (const auto& [oid, value] : overrides) {
        overridden.emplace(oid, value.AsString());
      }
      const Oid base = column.head_base();
      auto kept = std::remove_if(
          candidates->begin(), candidates->end(), [&](Oid oid) {
            auto it = overridden.find(oid);
            return !range.Contains(
                it != overridden.end()
                    ? it->second
                    : column.GetString(static_cast<size_t>(oid - base)));
          });
      candidates->erase(kept, candidates->end());
      return Status::OK();
    }
    default:
      return Status::Unimplemented(
          StrFormat("no candidate filter for %s columns",
                    ValueTypeName(column.tail_type())));
  }
}

Result<ColumnAggregates> AggregateCandidates(
    const Bat& column, const std::vector<std::pair<Oid, Value>>& overrides,
    const std::vector<Oid>& oids) {
  const bool is32 = column.tail_type() == ValueType::kInt32;
  if (!is32 && column.tail_type() != ValueType::kInt64) {
    return Status::Unimplemented("aggregates need integer columns");
  }
  std::unordered_map<Oid, int64_t> overridden;
  for (const auto& [oid, value] : overrides) {
    overridden.emplace(oid, value.ToInt64());
  }
  ColumnAggregates out;
  const Oid base = column.head_base();
  for (Oid oid : oids) {
    const size_t row = static_cast<size_t>(oid - base);
    int64_t v = is32 ? column.Get<int32_t>(row) : column.Get<int64_t>(row);
    if (!overridden.empty()) {
      auto it = overridden.find(oid);
      if (it != overridden.end()) v = it->second;
    }
    out.sum = static_cast<int64_t>(static_cast<uint64_t>(out.sum) +
                                   static_cast<uint64_t>(v));
    out.min = out.has_minmax ? std::min(out.min, v) : v;
    out.max = out.has_minmax ? std::max(out.max, v) : v;
    out.has_minmax = true;
  }
  out.rows = oids.size();
  out.io.tuples_read = oids.size();
  return out;
}

}  // namespace crackstore
