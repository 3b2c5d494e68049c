// Dense row-major float tensor.
//
// The NN substrate works almost exclusively with 1-D vectors and 2-D
// (batch × features) matrices, so Tensor keeps a contiguous float32 buffer
// plus a small shape vector; no strides, no views. Kernels that need raw
// speed operate on data() directly (see kernels.h). Storage is 64-byte
// aligned (aligned.h) so vector loads on tensor data never split a cache
// line and packed GEMM panels copied from tensors stay line-aligned.

#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "tensor/aligned.h"

namespace optinter {

/// Contiguous row-major float32 tensor with value semantics.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(const std::vector<size_t>& shape) { Resize(shape); }
  Tensor(std::initializer_list<size_t> shape) { Resize(shape); }

  /// Reshapes (and zero-fills) to `shape`. Both overloads assign into the
  /// existing buffers, so a Tensor resized to the same (or smaller) shape
  /// every step never reallocates — part of the steady-state
  /// zero-allocation contract for TrainStep (DESIGN.md). The braced-list
  /// overload matters: without it `Resize({a, b})` would materialize a
  /// temporary std::vector on the heap at every call site.
  void Resize(const std::vector<size_t>& shape) {
    shape_.assign(shape.begin(), shape.end());
    data_.assign(ShapeElems(), 0.0f);
  }
  void Resize(std::initializer_list<size_t> shape) {
    shape_.assign(shape.begin(), shape.end());
    data_.assign(ShapeElems(), 0.0f);
  }

  /// Reshapes to `shape` WITHOUT zero-filling: the elements keep whatever
  /// the buffer held (stale values of an earlier shape, or uninitialized
  /// memory after growth). Only for outputs that the next kernel
  /// overwrites in full before anything reads them (DESIGN.md §5 lists
  /// the call sites and the rule); everything else uses Resize.
  void ResizeForOverwrite(const std::vector<size_t>& shape) {
    shape_.assign(shape.begin(), shape.end());
    data_.resize(ShapeElems());
  }
  void ResizeForOverwrite(std::initializer_list<size_t> shape) {
    shape_.assign(shape.begin(), shape.end());
    data_.resize(ShapeElems());
  }

  /// Reinterprets the buffer with a new shape of identical element count.
  void Reshape(const std::vector<size_t>& shape) {
    size_t n = 1;
    for (size_t d : shape) n *= d;
    CHECK_EQ(n, data_.size());
    shape_.assign(shape.begin(), shape.end());
  }
  void Reshape(std::initializer_list<size_t> shape) {
    size_t n = 1;
    for (size_t d : shape) n *= d;
    CHECK_EQ(n, data_.size());
    shape_.assign(shape.begin(), shape.end());
  }

  const std::vector<size_t>& shape() const { return shape_; }
  size_t ndim() const { return shape_.size(); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Dimension `i` of the shape.
  size_t dim(size_t i) const {
    CHECK_LT(i, shape_.size());
    return shape_[i];
  }

  /// Rows / cols accessors for the common 2-D case.
  size_t rows() const {
    CHECK_EQ(ndim(), 2u);
    return shape_[0];
  }
  size_t cols() const {
    CHECK_EQ(ndim(), 2u);
    return shape_[1];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Row pointer for a 2-D tensor.
  float* row(size_t r) {
    CHECK_LT(r, rows());
    return data_.data() + r * shape_[1];
  }
  const float* row(size_t r) const {
    CHECK_LT(r, rows());
    return data_.data() + r * shape_[1];
  }

  /// Flat element access.
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  /// 2-D element access (bounds-checked).
  float& at(size_t r, size_t c) {
    CHECK_LT(r, rows());
    CHECK_LT(c, cols());
    return data_[r * shape_[1] + c];
  }
  float at(size_t r, size_t c) const {
    CHECK_LT(r, rows());
    CHECK_LT(c, cols());
    return data_[r * shape_[1] + c];
  }

  /// Fills every element with `value`.
  void Fill(float value) { data_.assign(data_.size(), value); }

  /// Sets all elements to zero (keeps shape).
  void Zero() { Fill(0.0f); }

  /// Shape as "[a, b]" for diagnostics.
  std::string ShapeString() const;

  /// True when shapes match exactly.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  size_t ShapeElems() const {
    size_t n = 1;
    for (size_t d : shape_) n *= d;
    return n;
  }

  std::vector<size_t> shape_;
  std::vector<float, DefaultInitAlignedAllocator<float>> data_;
};

}  // namespace optinter
