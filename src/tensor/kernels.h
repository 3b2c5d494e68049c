// Numeric kernels over raw float buffers.
//
// All GEMM variants are expressed with explicit transpose flags so the
// layer backward passes never materialize transposed copies. The GEMMs
// pack B into column panels, read A in place, and run register-tiled
// micro-kernels built on the fixed-width SIMD abstraction in simd.h. The
// GEMMs (like the sigmoid range and the int8 kernels) are dispatched at
// runtime to the widest kernel table the host supports (AVX-512 /
// AVX2+FMA / SSE2 / scalar, or the binary's own backend; OPTINTER_SIMD
// overrides — dispatch.h); the other kernels here use the backend chosen
// at compile time. Large GEMMs are split across the global thread pool
// over a 2-D cell grid (chunked GemmTN: over B panels). GemmNT's weight
// pack can be done once for weights that stop changing (PackNT +
// GemmNTPacked): same panels, same driver, same bits.
//
// Determinism: for a given build and kernel table, every kernel is
// bit-identical at any thread count — cell and row chunking never change
// an element's accumulation order, reductions use fixed chunk grids with
// fixed-shape merges, and elementwise kernels compute each element
// identically whether a vector lane or a scalar tail handles it (see
// simd.h). Results differ ACROSS backends (FMA contracts rounding; Exp is
// polynomial vs libm). Tests compare against naive references and also
// against golden hashes recorded per backend and build configuration:
// tests/gemm_golden_test.cc pins the GEMM outputs, golden_bits_test.cc a
// whole train-and-predict pipeline (DESIGN.md §5, §7).

#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

#include "tensor/aligned.h"
#include "tensor/tensor.h"

namespace optinter {

/// Name of the compiled-in SIMD backend ("avx2-fma", "sse2", "neon",
/// "scalar") — surfaced in benches and reports so recorded numbers are
/// attributable to a backend.
const char* SimdBackendName();

// ---------------------------------------------------------------------------
// GEMM family: C = alpha * op(A) * op(B) + beta * C, all row-major.
// ---------------------------------------------------------------------------

/// C[m×n] += A[m×k] * B[k×n] (beta pre-applied by caller flag).
void GemmNN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n, float alpha = 1.0f, float beta = 0.0f);

/// C[m×n] = A[m×k] * B^T where B is [n×k]. The usual Linear forward with a
/// [out×in] weight matrix.
void GemmNT(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n, float alpha = 1.0f, float beta = 0.0f);

struct KernelTable;

/// GemmNT's weight operand B = b^T (b is [n×k], row-major), laid out once
/// for GemmNTPacked: the kKC×kNR panels GemmNT otherwise packs on every
/// call (b's own layout, copied, for shapes GemmNT does not pack). For
/// weights that no longer change — a published model's MLP — this moves
/// the pack out of every call. The layout belongs to the kernel table
/// that was active at PackNT (panel width is per backend), and
/// GemmNTPacked CHECK-fails under any other table. Immutable once built;
/// any number of threads may share one.
class PackedNT {
 public:
  size_t k() const { return k_; }
  size_t n() const { return n_; }
  const float* data() const { return data_.data(); }
  /// The table that packed it; nullptr for a default-constructed pack.
  const KernelTable* table() const { return table_; }

 private:
  friend PackedNT PackNT(const float* b, size_t k, size_t n);

  AlignedVector<float> data_;
  size_t k_ = 0;
  size_t n_ = 0;
  const KernelTable* table_ = nullptr;
};

/// Packs b [n×k] for GemmNTPacked under the active kernel table.
PackedNT PackNT(const float* b, size_t k, size_t n);

/// C[m×n] = alpha·A[m×k]·B^T + beta·C over a PackNT operand: GemmNT's
/// driver without its per-call pack, so the bits equal GemmNT(a, b, c, m,
/// k, n, alpha, beta) on the same table. CHECK-fails, naming both tables,
/// when `b` was packed under a different kernel table than the active one.
void GemmNTPacked(const float* a, const PackedNT& b, float* c, size_t m,
                  float alpha = 1.0f, float beta = 0.0f);

/// C[k×n] = A^T * B where A is [m×k], B is [m×n]. Weight-gradient shape.
/// Large shapes split the reduction over m into a fixed chunk grid; each C
/// tile sums every chunk into its own partial and combines them with a
/// fixed-shape tree. The grid depends only on the shape, so the result is
/// bit-identical at any thread count.
void GemmTN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n, float alpha = 1.0f, float beta = 0.0f);

namespace internal {

// Naive serial reference GEMMs: plain triple loops, no blocking, packing
// or vectorization. Kept as the ground truth the property tests compare
// the packed/SIMD implementations against (tests/simd_kernels_test.cc).
void GemmNNRef(const float* a, const float* b, float* c, size_t m, size_t k,
               size_t n, float alpha = 1.0f, float beta = 0.0f);
void GemmNTRef(const float* a, const float* b, float* c, size_t m, size_t k,
               size_t n, float alpha = 1.0f, float beta = 0.0f);
void GemmTNRef(const float* a, const float* b, float* c, size_t m, size_t k,
               size_t n, float alpha = 1.0f, float beta = 0.0f);

}  // namespace internal

// ---------------------------------------------------------------------------
// Elementwise / reduction helpers.
// ---------------------------------------------------------------------------

/// y += alpha * x over n elements.
void Axpy(size_t n, float alpha, const float* x, float* y);

/// dst[0:n] = src[0:n]. Embedding-row widths (4, 8, 16, 32 floats) copy
/// with a size fixed at compile time, which inlines to a few moves;
/// other widths call memcpy.
inline void CopyFloats(float* dst, const float* src, size_t n) {
  switch (n) {
    case 4:
      std::memcpy(dst, src, 4 * sizeof(float));
      return;
    case 8:
      std::memcpy(dst, src, 8 * sizeof(float));
      return;
    case 16:
      std::memcpy(dst, src, 16 * sizeof(float));
      return;
    case 32:
      std::memcpy(dst, src, 32 * sizeof(float));
      return;
    default:
      std::memcpy(dst, src, n * sizeof(float));
  }
}

/// Scales x by alpha in place.
void Scale(size_t n, float alpha, float* x);

/// Dot product over n elements (vector accumulators combined in a fixed
/// order — deterministic per backend for a given n).
float Dot(size_t n, const float* x, const float* y);

/// out = x ⊙ y (Hadamard), n elements.
void Hadamard(size_t n, const float* x, const float* y, float* out);

/// out += x ⊙ y, n elements.
void HadamardAccum(size_t n, const float* x, const float* y, float* out);

/// Sum of n elements (fixed reduction order, see Dot).
float Sum(size_t n, const float* x);

/// Numerically-stable softmax of `logits` (length n) into `probs`.
/// CHECK-fails on n == 0 (same contract as LogSumExp).
void Softmax(size_t n, const float* logits, float* probs);

/// Numerically-stable log-sum-exp of n values. CHECK-fails on n == 0.
float LogSumExp(size_t n, const float* x);

/// Stable sigmoid.
inline float SigmoidScalar(float z) {
  if (z >= 0.0f) {
    const float e = std::exp(-z);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(z);
  return e / (1.0f + e);
}

// ---------------------------------------------------------------------------
// Tensor-level conveniences (shape-checked wrappers over the raw kernels).
// ---------------------------------------------------------------------------

/// c = a * b (2-D, shapes validated).
void MatMul(const Tensor& a, const Tensor& b, Tensor* c);

/// c = a * b^T.
void MatMulNT(const Tensor& a, const Tensor& b, Tensor* c);

/// c = a^T * b.
void MatMulTN(const Tensor& a, const Tensor& b, Tensor* c);

}  // namespace optinter
