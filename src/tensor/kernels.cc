#include "tensor/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/dispatch.h"
#include "tensor/simd.h"

namespace optinter {

const char* SimdBackendName() { return simd::kBackendName; }

namespace {

using simd::VecF;

constexpr size_t kL = simd::kLanes;

}  // namespace

// The GEMM implementations live in gemm_body.inc, compiled once per ISA
// variant (kernels_dispatch_*.cc) and reached through the runtime
// dispatch table — see dispatch.h for the selection policy. These
// wrappers keep the public API (and its trace spans) unchanged.

void GemmNN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n, float alpha, float beta) {
  OPTINTER_TRACE_SPAN("gemm_nn");
  ActiveKernels().gemm_nn(a, b, c, m, k, n, alpha, beta);
}

void GemmNT(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n, float alpha, float beta) {
  OPTINTER_TRACE_SPAN("gemm_nt");
  ActiveKernels().gemm_nt(a, b, c, m, k, n, alpha, beta);
}

PackedNT PackNT(const float* b, size_t k, size_t n) {
  OPTINTER_TRACE_SPAN("pack_nt");
  const KernelTable& kt = ActiveKernels();
  PackedNT packed;
  packed.table_ = &kt;
  packed.k_ = k;
  packed.n_ = n;
  packed.data_.resize(kt.pack_nt_floats(k, n));
  kt.pack_nt(b, k, n, packed.data_.data());
  return packed;
}

void GemmNTPacked(const float* a, const PackedNT& b, float* c, size_t m,
                  float alpha, float beta) {
  OPTINTER_TRACE_SPAN("gemm_nt_packed");
  const KernelTable& kt = ActiveKernels();
  CHECK(b.table() != nullptr) << "GemmNTPacked on an empty PackedNT";
  CHECK(b.table() == &kt)
      << "GemmNTPacked: weights packed under kernel table '"
      << b.table()->name << "' used while '" << kt.name
      << "' is active; repack them under the active table";
  kt.gemm_nt_packed(a, b.data(), c, m, b.k(), b.n(), alpha, beta);
}

void GemmTN(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n, float alpha, float beta) {
  OPTINTER_TRACE_SPAN("gemm_tn");
  ActiveKernels().gemm_tn(a, b, c, m, k, n, alpha, beta);
}

namespace internal {

void GemmNNRef(const float* a, const float* b, float* c, size_t m, size_t k,
               size_t n, float alpha, float beta) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      const float base = beta == 0.0f ? 0.0f : beta * c[i * n + j];
      c[i * n + j] = base + alpha * acc;
    }
  }
}

void GemmNTRef(const float* a, const float* b, float* c, size_t m, size_t k,
               size_t n, float alpha, float beta) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
      const float base = beta == 0.0f ? 0.0f : beta * c[i * n + j];
      c[i * n + j] = base + alpha * acc;
    }
  }
}

void GemmTNRef(const float* a, const float* b, float* c, size_t m, size_t k,
               size_t n, float alpha, float beta) {
  for (size_t p = 0; p < k; ++p) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t i = 0; i < m; ++i) acc += a[i * k + p] * b[i * n + j];
      const float base = beta == 0.0f ? 0.0f : beta * c[p * n + j];
      c[p * n + j] = base + alpha * acc;
    }
  }
}

}  // namespace internal

void Axpy(size_t n, float alpha, const float* x, float* y) {
  const VecF av = simd::Set1(alpha);
  size_t i = 0;
  for (; i + kL <= n; i += kL) {
    simd::StoreU(y + i,
                 simd::MulAdd(av, simd::LoadU(x + i), simd::LoadU(y + i)));
  }
  for (; i < n; ++i) y[i] = simd::MulAddScalar(alpha, x[i], y[i]);
}

void Scale(size_t n, float alpha, float* x) {
  const VecF av = simd::Set1(alpha);
  size_t i = 0;
  for (; i + kL <= n; i += kL) {
    simd::StoreU(x + i, simd::Mul(av, simd::LoadU(x + i)));
  }
  for (; i < n; ++i) x[i] = alpha * x[i];
}

float Dot(size_t n, const float* x, const float* y) {
  // Four independent accumulator chains hide FMA latency; the combination
  // order (acc0+acc1)+(acc2+acc3) and the lane tree inside ReduceAdd are
  // fixed, so the result depends only on n and the values.
  VecF a0 = simd::Zero(), a1 = simd::Zero(), a2 = simd::Zero(),
       a3 = simd::Zero();
  size_t i = 0;
  for (; i + 4 * kL <= n; i += 4 * kL) {
    a0 = simd::MulAdd(simd::LoadU(x + i), simd::LoadU(y + i), a0);
    a1 = simd::MulAdd(simd::LoadU(x + i + kL), simd::LoadU(y + i + kL), a1);
    a2 = simd::MulAdd(simd::LoadU(x + i + 2 * kL),
                      simd::LoadU(y + i + 2 * kL), a2);
    a3 = simd::MulAdd(simd::LoadU(x + i + 3 * kL),
                      simd::LoadU(y + i + 3 * kL), a3);
  }
  for (; i + kL <= n; i += kL) {
    a0 = simd::MulAdd(simd::LoadU(x + i), simd::LoadU(y + i), a0);
  }
  float acc =
      simd::ReduceAdd(simd::Add(simd::Add(a0, a1), simd::Add(a2, a3)));
  for (; i < n; ++i) acc = simd::MulAddScalar(x[i], y[i], acc);
  return acc;
}

void Hadamard(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + kL <= n; i += kL) {
    simd::StoreU(out + i, simd::Mul(simd::LoadU(x + i), simd::LoadU(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

void HadamardAccum(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + kL <= n; i += kL) {
    simd::StoreU(out + i, simd::MulAdd(simd::LoadU(x + i), simd::LoadU(y + i),
                                       simd::LoadU(out + i)));
  }
  for (; i < n; ++i) out[i] = simd::MulAddScalar(x[i], y[i], out[i]);
}

float Sum(size_t n, const float* x) {
  VecF a0 = simd::Zero(), a1 = simd::Zero();
  size_t i = 0;
  for (; i + 2 * kL <= n; i += 2 * kL) {
    a0 = simd::Add(a0, simd::LoadU(x + i));
    a1 = simd::Add(a1, simd::LoadU(x + i + kL));
  }
  for (; i + kL <= n; i += kL) a0 = simd::Add(a0, simd::LoadU(x + i));
  float acc = simd::ReduceAdd(simd::Add(a0, a1));
  for (; i < n; ++i) acc += x[i];
  return acc;
}

void Softmax(size_t n, const float* logits, float* probs) {
  // Same contract as LogSumExp: an empty input is a programmer error, not
  // a silent no-op (a silent return here once masked empty-candidate bugs
  // upstream while LogSumExp aborted on the identical input).
  //
  // Deliberately scalar: callers pass interaction-choice distributions
  // (n == 3), far below any width where vectorizing pays.
  CHECK_GT(n, 0u);
  float max_v = logits[0];
  for (size_t i = 1; i < n; ++i) max_v = std::max(max_v, logits[i]);
  float total = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    probs[i] = std::exp(logits[i] - max_v);
    total += probs[i];
  }
  const float inv = 1.0f / total;
  for (size_t i = 0; i < n; ++i) probs[i] *= inv;
}

float LogSumExp(size_t n, const float* x) {
  CHECK_GT(n, 0u);
  float max_v = x[0];
  for (size_t i = 1; i < n; ++i) max_v = std::max(max_v, x[i]);
  float total = 0.0f;
  for (size_t i = 0; i < n; ++i) total += std::exp(x[i] - max_v);
  return max_v + std::log(total);
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* c) {
  CHECK_EQ(a.cols(), b.rows());
  c->Resize({a.rows(), b.cols()});
  GemmNN(a.data(), b.data(), c->data(), a.rows(), a.cols(), b.cols());
}

void MatMulNT(const Tensor& a, const Tensor& b, Tensor* c) {
  CHECK_EQ(a.cols(), b.cols());
  c->Resize({a.rows(), b.rows()});
  GemmNT(a.data(), b.data(), c->data(), a.rows(), a.cols(), b.rows());
}

void MatMulTN(const Tensor& a, const Tensor& b, Tensor* c) {
  CHECK_EQ(a.rows(), b.rows());
  c->Resize({a.cols(), b.cols()});
  GemmTN(a.data(), b.data(), c->data(), a.rows(), a.cols(), b.cols());
}

}  // namespace optinter
