#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cadmc::tensor {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream ss;
  ss << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) ss << "x";
    ss << shape[i];
  }
  ss << "]";
  return ss.str();
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (int d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  for (int d : shape_) {
    if (d <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
  }
  storage_ = new Storage(
      std::vector<float>(static_cast<std::size_t>(shape_numel(shape_)), 0.0f));
}

Tensor::Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)) {
  if (shape_numel(shape_) != static_cast<std::int64_t>(values.size()))
    throw std::invalid_argument("Tensor: values size does not match shape");
  storage_ = new Storage(std::move(values));
}

void Tensor::unshare() {
  Storage* copy = new Storage(storage_->values);
  release(storage_);
  storage_ = copy;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.storage_->values)
    v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.storage_->values)
    v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  return Tensor({static_cast<int>(values.size())},
                std::vector<float>(values));
}

std::int64_t Tensor::flat_index(std::span<const int> idx) const {
  assert(idx.size() == shape_.size());
  std::int64_t flat = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] >= 0 && idx[i] < shape_[i]);
    flat = flat * shape_[i] + idx[i];
  }
  return flat;
}

float& Tensor::operator()(int i) {
  const int idx[] = {i};
  return at(flat_index(idx));
}
float Tensor::operator()(int i) const {
  const int idx[] = {i};
  return at(flat_index(idx));
}
float& Tensor::operator()(int i, int j) {
  const int idx[] = {i, j};
  return at(flat_index(idx));
}
float Tensor::operator()(int i, int j) const {
  const int idx[] = {i, j};
  return at(flat_index(idx));
}
float& Tensor::operator()(int i, int j, int k) {
  const int idx[] = {i, j, k};
  return at(flat_index(idx));
}
float Tensor::operator()(int i, int j, int k) const {
  const int idx[] = {i, j, k};
  return at(flat_index(idx));
}
float& Tensor::operator()(int n, int c, int h, int w) {
  const int idx[] = {n, c, h, w};
  return at(flat_index(idx));
}
float Tensor::operator()(int n, int c, int h, int w) const {
  const int idx[] = {n, c, h, w};
  return at(flat_index(idx));
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (shape_numel(new_shape) != numel())
    throw std::invalid_argument("reshaped: numel mismatch");
  Tensor t(*this);
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor& Tensor::fill(float value) {
  for (float& v : data()) v = value;
  return *this;
}

Tensor& Tensor::add_(const Tensor& other) {
  assert(numel() == other.numel());
  const std::span<const float> src = other.data();
  const std::span<float> dst = data();
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float s) {
  assert(numel() == other.numel());
  const std::span<const float> src = other.data();
  const std::span<float> dst = data();
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += s * src[i];
  return *this;
}

Tensor& Tensor::scale_(float s) {
  for (float& v : data()) v *= s;
  return *this;
}

Tensor& Tensor::clamp_min_(float lo) {
  for (float& v : data()) v = std::max(v, lo);
  return *this;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float v : values()) s += v;
  return static_cast<float>(s);
}

float Tensor::max() const {
  assert(!empty());
  return *std::max_element(values().begin(), values().end());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : values()) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::l2_norm() const {
  double s = 0.0;
  for (float v : values()) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

int Tensor::argmax() const {
  assert(!empty());
  const std::span<const float> v = values();
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  assert(a.numel() == b.numel());
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(a.at(i) - b.at(i)));
  return m;
}

std::string Tensor::to_string(int max_elems) const {
  std::ostringstream ss;
  ss << "Tensor" << shape_to_string(shape_) << " {";
  const std::int64_t n = std::min<std::int64_t>(numel(), max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) ss << ", ";
    ss << at(i);
  }
  if (numel() > n) ss << ", ...";
  ss << "}";
  return ss.str();
}

}  // namespace cadmc::tensor
