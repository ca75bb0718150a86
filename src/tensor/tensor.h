// A small dense float32 tensor. This is the numerical substrate for the DNN
// library (src/nn): weights, activations and gradients are all Tensors.
// Row-major (C-contiguous) layout, up to 4 dimensions, NCHW convention for
// image tensors.
//
// Storage is shared and copy-on-write. Copying a tensor (and so copying a
// Layer or Model, slicing or appending a Model, or reshaping) only bumps a
// reference count. Every mutating entry point — non-const data(), at() and
// operator(), fill and the in-place arithmetic — first detaches a shared
// buffer into a private copy, so tensors still behave as values: no write
// through one tensor is ever visible through another. Const reads never
// detach. The reference count is atomic, so copies of one buffer may live on
// different threads; as with any value type, one Tensor object must not be
// written from two threads at once.
//
// A raw pointer or span taken from non-const data() stays valid, and keeps
// writing into this tensor's own buffer, only until the tensor is next
// copied: write first, then copy.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cadmc::tensor {

using Shape = std::vector<int>;

std::string shape_to_string(const Shape& shape);
std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  /// Empty tensor (numel == 0).
  Tensor() = default;
  Tensor(const Tensor& other)
      : shape_(other.shape_), storage_(other.storage_) {
    if (storage_ != nullptr)
      storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        storage_(std::exchange(other.storage_, nullptr)) {}
  /// Copy or move assignment (copy-and-swap).
  Tensor& operator=(Tensor other) noexcept {
    shape_.swap(other.shape_);
    std::swap(storage_, other.storage_);
    return *this;
  }
  ~Tensor() { release(storage_); }

  /// Zero-initialized tensor of the given shape. All dims must be positive.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// I.i.d. normal entries with the given stddev.
  static Tensor randn(Shape shape, util::Rng& rng, float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor rand_uniform(Shape shape, util::Rng& rng, float lo, float hi);
  /// 1-D tensor from a list.
  static Tensor from_values(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  int dim(std::size_t i) const {
    assert(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const {
    return static_cast<std::int64_t>(values().size());
  }
  bool empty() const { return values().empty(); }

  std::span<float> data() {
    detach();
    return storage_ != nullptr ? std::span<float>(storage_->values)
                               : std::span<float>();
  }
  std::span<const float> data() const { return values(); }

  float& at(std::int64_t i) {
    assert(i >= 0 && i < numel());
    detach();
    return storage_->values[static_cast<std::size_t>(i)];
  }
  float at(std::int64_t i) const {
    assert(i >= 0 && i < numel());
    return values()[static_cast<std::size_t>(i)];
  }

  // Multi-dimensional accessors; rank must match.
  float& operator()(int i);
  float operator()(int i) const;
  float& operator()(int i, int j);
  float operator()(int i, int j) const;
  float& operator()(int i, int j, int k);
  float operator()(int i, int j, int k) const;
  float& operator()(int n, int c, int h, int w);
  float operator()(int n, int c, int h, int w) const;

  /// Same data reinterpreted under a new shape; numel must match. Shares
  /// this tensor's buffer (copy-on-write).
  Tensor reshaped(Shape new_shape) const;

  // In-place arithmetic.
  Tensor& fill(float value);
  Tensor& add_(const Tensor& other);                // this += other
  Tensor& add_scaled_(const Tensor& other, float s);  // this += s * other
  Tensor& scale_(float s);                          // this *= s
  Tensor& clamp_min_(float lo);

  // Reductions.
  float sum() const;
  float max() const;
  float abs_max() const;
  float l2_norm() const;
  int argmax() const;

  /// Max |a-b| over elements; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);

  /// Serialized size in bytes when sent over the wire (float32 payload).
  /// This is the S of the transfer-latency model (Eqn. 6).
  std::int64_t byte_size() const { return numel() * 4; }

  std::string to_string(int max_elems = 16) const;

 private:
  // A float buffer plus the number of Tensors sharing it. Acquire/release
  // ordering on the count makes a writer that finds itself the sole owner
  // happen-after every read the released owners made of the buffer; this is
  // why the count is hand-rolled: std::shared_ptr::use_count() is a relaxed
  // load and gives no such ordering.
  struct Storage {
    explicit Storage(std::vector<float> v) : values(std::move(v)) {}
    std::vector<float> values;
    std::atomic<long> refs{1};
  };
  static void release(Storage* s) {
    if (s != nullptr && s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete s;
  }

  std::span<const float> values() const {
    return storage_ != nullptr ? std::span<const float>(storage_->values)
                               : std::span<const float>();
  }
  bool shared() const {
    return storage_ != nullptr &&
           storage_->refs.load(std::memory_order_acquire) != 1;
  }
  /// Gives this tensor a private copy of a shared buffer: one branch when
  /// it already owns its buffer alone.
  void detach() {
    if (shared()) unshare();
  }
  void unshare();
  std::int64_t flat_index(std::span<const int> idx) const;

  Shape shape_;
  Storage* storage_ = nullptr;
};

}  // namespace cadmc::tensor
