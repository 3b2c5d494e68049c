// Runtime kernel dispatch: one binary, several compiled kernel variants,
// the widest one the host supports selected once at startup.
//
// Historically the SIMD backend was fixed at compile time (simd.h) — a
// binary built with -mavx2 could only ever run its AVX2 kernels. For the
// serving story ("one release binary serves a heterogeneous fleet") the
// hot kernels are now ALSO compiled into per-ISA variant translation
// units (kernels_dispatch_*.cc, built from the shared gemm_body.inc under
// `#pragma GCC target` regions) and reached through the function-pointer
// table below. Covered kernels: the three GEMM drivers (and GemmNT's
// pack-once split), the vectorized sigmoid range, the int8 GEMM
// accumulator, and the quantized-row dequantize gathers. Everything else
// (elementwise kernels, LayerNorm, optimizer loops) stays on the
// compile-time backend — those are header-inlined all over the tree and
// are not serving-critical.
//
// Selection:
//   1. `OPTINTER_SIMD=<name>` env var, if set and the named variant is
//      compiled in AND supported by the host ("avx512", "avx2-fma",
//      "sse2", "scalar", or "auto"). An unknown/unsupported name warns
//      once on stderr and falls back to auto.
//   2. Otherwise auto: avx512 → avx2-fma → native → sse2 → scalar, first
//      variant whose ISA the host supports (CPUID, cpu_features.h).
//
// The "native" variant is the body compiled exactly like the rest of the
// binary (whatever simd.h selected at compile time). It always exists, so
// dispatch can never come up empty — on clang, non-x86, or
// -DOPTINTER_DISABLE_SIMD builds it is the only variant.
//
// Determinism: the contract is per (build, selected backend). For a fixed
// table every kernel keeps the bit-exact any-thread-count guarantee
// documented in kernels.h; switching tables (different host, or
// OPTINTER_SIMD override) changes rounding exactly like recompiling for a
// different backend always did. See DESIGN.md §11.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace optinter {

/// Per-backend kernel function-pointer table. All pointers are non-null
/// in every registered table.
struct KernelTable {
  /// Backend name ("avx512", "avx2-fma", "sse2", "scalar", "neon").
  const char* name;
  /// Packed-GEMM register tile: up to gemm_mr rows of C by gemm_nr
  /// columns (one B panel). Tests aim their partial-tile and
  /// partial-panel cases at these.
  size_t gemm_mr;
  size_t gemm_nr;

  /// C[m×n] = alpha·A[m×k]·B[k×n] + beta·C.
  void (*gemm_nn)(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n, float alpha, float beta);
  /// C[m×n] = alpha·A[m×k]·B^T + beta·C, B is [n×k].
  void (*gemm_nt)(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n, float alpha, float beta);
  /// C[k×n] = alpha·A^T·B + beta·C, A is [m×k], B is [m×n].
  void (*gemm_tn)(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n, float alpha, float beta);

  /// gemm_nt split in two (kernels.h PackNT / GemmNTPacked): pack_nt
  /// writes B = b^T (b is [n×k]) into pack_nt_floats(k, n) floats in the
  /// layout this table's GEMM driver reads — the kNR-column panels gemm_nt
  /// packs on every call, or b's own layout for shapes gemm_nt does not
  /// pack — and gemm_nt_packed runs gemm_nt's driver over that operand,
  /// bit for bit. gemm_nt is pack_nt into a thread-local buffer followed
  /// by gemm_nt_packed.
  size_t (*pack_nt_floats)(size_t k, size_t n);
  void (*pack_nt)(const float* b, size_t k, size_t n, float* dst);
  void (*gemm_nt_packed)(const float* a, const float* bpack, float* c,
                         size_t m, size_t k, size_t n, float alpha,
                         float beta);

  /// out[i] = sigmoid(z[i]) for one contiguous range; every element goes
  /// through the backend's lane function (padded tail), so results are
  /// independent of how callers chunk the range.
  void (*sigmoid)(const float* z, size_t n, float* out);

  /// acc[i·n+j] = Σ_p a[i·k+p]·b[j·k+p], a unsigned (values ≤ 127), b
  /// signed int8. Pure integer arithmetic — exact, so every backend
  /// returns identical accumulators (the fp32 epilogue lives in shared
  /// code; see int8.h).
  void (*int8_gemm_nt_acc)(const uint8_t* a, const int8_t* b, int32_t* acc,
                           size_t m, size_t k, size_t n);

  /// out[t] = scale · (q[t] − zp): the int8 quantized-row gather.
  /// One multiply of exactly-representable integers per element — bitwise
  /// identical across backends.
  void (*dequant_row_i8)(const int8_t* q, float scale, int32_t zp,
                         size_t dim, float* out);
  /// out[t] = bf16→fp32(q[t]) (bit shift): the bf16 quantized-row gather.
  void (*dequant_row_bf16)(const uint16_t* q, size_t dim, float* out);
};

/// The table serving this process, selected on first use (see file
/// comment for the policy). Stable for the process lifetime unless a test
/// swaps it via SelectKernelBackendForTest.
const KernelTable& ActiveKernels();

/// Name of the active table — surfaced in benches/reports so recorded
/// numbers are attributable to a backend.
const char* ActiveKernelBackend();

/// All variants compiled into this binary AND supported by this host, in
/// auto-selection preference order, deduplicated by name.
std::vector<const KernelTable*> AvailableKernelBackends();

/// Test hook: atomically swap the active table to the named backend
/// ("auto" re-runs auto selection). Returns false (no change) when the
/// name is unknown, not compiled in, or unsupported on this host. Not for
/// production use — callers must not race this against in-flight kernels
/// they expect to be bitwise-reproducible.
bool SelectKernelBackendForTest(const char* name);

// Variant registration points, defined by the kernels_dispatch_*.cc
// translation units (nullptr when that variant is not compiled into this
// binary). Internal to the dispatch layer.
const KernelTable* GetKernelVariantNative();
const KernelTable* GetKernelVariantScalar();
const KernelTable* GetKernelVariantSse2();
const KernelTable* GetKernelVariantAvx2();
const KernelTable* GetKernelVariantAvx512();

}  // namespace optinter
