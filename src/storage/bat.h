// Copyright 2026 The CrackStore Authors
//
// Bat: Binary Association Table, the storage unit of the column substrate
// (paper §3.4.2, Fig. 7). A BAT is a contiguous area of fixed-length records
// with a *void* (dense, virtual) head of oids and a typed tail. Variable
// length values live in a VarHeap; the tail then stores fixed-width offsets.
//
// Contiguity is the property cracking depends on: crack kernels shuffle the
// tail in place and pieces are represented as zero-copy BatViews.

#ifndef CRACKSTORE_STORAGE_BAT_H_
#define CRACKSTORE_STORAGE_BAT_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/types.h"
#include "storage/var_heap.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace crackstore {

/// Cached tail statistics; feed the cracker index and the toy optimizer.
struct BatStats {
  bool valid = false;
  bool sorted_asc = false;
  int64_t min = 0;   ///< numeric view of the minimum (meaningless for strings)
  int64_t max = 0;   ///< numeric view of the maximum
};

/// Maps the whole pages inside [p, p + n) for writing in one call
/// (Linux MADV_POPULATE_WRITE) instead of one page fault per page. A no-op
/// where the kernel or platform lacks it; the first writes then fault.
void PrefaultForWrite(void* p, size_t n);

/// A binary table [void head | typed tail]. See file comment.
class Bat {
 public:
  /// Creates an empty BAT with the given tail type. String BATs allocate a
  /// private VarHeap unless one is shared in via `heap`.
  static std::shared_ptr<Bat> Create(ValueType tail_type,
                                     std::string name = "",
                                     std::shared_ptr<VarHeap> heap = nullptr);

  /// Builds a BAT by copying a typed vector (head oids are 0..n-1).
  template <typename T>
  static std::shared_ptr<Bat> FromVector(const std::vector<T>& values,
                                         std::string name = "") {
    auto bat = Create(TypeTraits<T>::kType, std::move(name));
    // A bulk load's cost is the first touch of fresh pages: map them in one
    // call, then copy once (no zero-fill pass).
    const size_t n = values.size() * sizeof(T);
    bat->data_.reserve(n);
    PrefaultForWrite(bat->data_.data(), n);
    const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
    bat->data_.assign(bytes, bytes + n);
    bat->count_ = values.size();
    return bat;
  }

  CRACK_DISALLOW_COPY_AND_ASSIGN(Bat);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  ValueType tail_type() const { return tail_type_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// First oid of the dense head; head oid of row i is head_base() + i.
  Oid head_base() const { return head_base_; }
  void set_head_base(Oid base) { head_base_ = base; }

  /// Pre-allocates capacity for `n` tuples.
  void Reserve(size_t n) { data_.resize(n * width_); }

  /// Typed access to the contiguous tail. T must match tail_type().
  template <typename T>
  const T* TailData() const {
    CRACK_DCHECK(TypeTraits<T>::kType == tail_type_ ||
                 (tail_type_ == ValueType::kString &&
                  TypeTraits<T>::kType == ValueType::kOid));
    return reinterpret_cast<const T*>(data_.data());
  }

  template <typename T>
  T* MutableTailData() {
    CRACK_DCHECK(TypeTraits<T>::kType == tail_type_ ||
                 (tail_type_ == ValueType::kString &&
                  TypeTraits<T>::kType == ValueType::kOid));
    InvalidateStats();
    return reinterpret_cast<T*>(data_.data());
  }

  /// Appends one typed value.
  template <typename T>
  void Append(T value) {
    CRACK_DCHECK(TypeTraits<T>::kType == tail_type_);
    size_t offset = count_ * width_;
    if (offset + width_ > data_.size()) Grow();
    std::memcpy(data_.data() + offset, &value, sizeof(T));
    ++count_;
    InvalidateStats();
  }

  /// Appends a string tail value (interned into the heap).
  void AppendString(std::string_view s);

  /// Appends a dynamically-typed value; fails on a type mismatch.
  Status AppendValue(const Value& v);

  /// Overwrites element i of a numeric tail with the int64-widened `value`
  /// (update write-through). Fails on string tails and narrowing overflow.
  Status SetNumeric(size_t i, int64_t value);

  /// Overwrites element i of a string tail with `s` (interned into the
  /// heap). Fails on non-string tails.
  Status SetString(size_t i, std::string_view s);

  /// Typed overwrite of element i: strings route to SetString, numerics to
  /// the matching width (preserving double fractions, unlike SetNumeric).
  Status SetValue(size_t i, const Value& v);

  /// Reads element i as a dynamically-typed Value.
  Value GetValue(size_t i) const;

  /// Reads element i of a string BAT.
  std::string_view GetString(size_t i) const;

  /// Typed point read.
  template <typename T>
  T Get(size_t i) const {
    CRACK_DCHECK(i < count_);
    return TailData<T>()[i];
  }

  /// The string heap (nullptr for non-string BATs).
  const std::shared_ptr<VarHeap>& heap() const { return heap_; }

  /// Raw byte access for width-agnostic bulk copies.
  const uint8_t* raw_data() const { return data_.data(); }
  uint8_t* mutable_raw_data() {
    InvalidateStats();
    return data_.data();
  }

  /// Sets the logical tuple count after a bulk raw write into reserved
  /// storage. Callers must have Reserve()d at least `n` tuples.
  void SetCountUnsafe(size_t n) {
    CRACK_DCHECK(n * width_ <= data_.size());
    count_ = n;
    InvalidateStats();
  }

  /// Computes (and caches) tail statistics with one scan.
  const BatStats& ComputeStats() const;

  /// Drops cached statistics after a mutation.
  void InvalidateStats() { stats_.valid = false; }

  /// Deep copy (fresh storage, shared heap for strings).
  std::shared_ptr<Bat> Clone(std::string name = "") const;

  /// Bytes of tail storage in use.
  size_t tail_bytes() const { return count_ * width_; }

 private:
  Bat(ValueType tail_type, std::string name, std::shared_ptr<VarHeap> heap);

  void Grow() {
    size_t new_cap = data_.empty() ? 64 * width_ : data_.size() * 2;
    data_.resize(new_cap);
  }

  std::string name_;
  ValueType tail_type_;
  size_t width_;
  Oid head_base_ = 0;
  std::vector<uint8_t> data_;
  size_t count_ = 0;
  std::shared_ptr<VarHeap> heap_;
  mutable BatStats stats_;
};

/// BatView: a zero-copy window [offset, offset+size) over a parent BAT
/// (MonetDB's "BAT view", paper §3.4.2). A piece in the cracker index is a
/// BatView; creating one costs O(1) and no catalog locking.
class BatView {
 public:
  BatView() = default;

  /// Views the whole of `bat`.
  explicit BatView(std::shared_ptr<Bat> bat)
      : bat_(std::move(bat)), offset_(0), size_(bat_ ? bat_->size() : 0) {}

  /// Views rows [offset, offset+size) of `bat`.
  BatView(std::shared_ptr<Bat> bat, size_t offset, size_t size)
      : bat_(std::move(bat)), offset_(offset), size_(size) {
    CRACK_DCHECK(bat_ == nullptr || offset_ + size_ <= bat_->size());
  }

  bool valid() const { return bat_ != nullptr; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t offset() const { return offset_; }
  const std::shared_ptr<Bat>& bat() const { return bat_; }

  /// Head oid of view row i (dense head arithmetic).
  Oid HeadOid(size_t i) const {
    CRACK_DCHECK(i < size_);
    return bat_->head_base() + offset_ + i;
  }

  template <typename T>
  const T* data() const {
    return bat_->TailData<T>() + offset_;
  }

  template <typename T>
  T Get(size_t i) const {
    CRACK_DCHECK(i < size_);
    return bat_->TailData<T>()[offset_ + i];
  }

  Value GetValue(size_t i) const {
    CRACK_DCHECK(i < size_);
    return bat_->GetValue(offset_ + i);
  }

  /// Sub-view relative to this view.
  BatView Slice(size_t offset, size_t size) const {
    CRACK_DCHECK(offset + size <= size_);
    return BatView(bat_, offset_ + offset, size);
  }

  /// Copies the viewed rows into a fresh standalone BAT.
  std::shared_ptr<Bat> Materialize(std::string name = "") const;

 private:
  std::shared_ptr<Bat> bat_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_STORAGE_BAT_H_
