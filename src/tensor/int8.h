// int8 quantized GEMM (dynamic-activation, per-row weights).
//
// No serving path calls it any more: a quantized snapshot keeps int8
// tables and runs its source's packed fp32 MLP (serve/quantized_model.h).
// It stays for the perfbench probe tensor.int8_gemm_b1_gops and the
// Int8GemmTest cases, and goes together with that probe.
//
// Scheme (chosen so the OUTPUT of the quantized GEMM is bitwise identical
// under every dispatch backend):
//
//  * Activations are quantized dynamically per ROW to UNSIGNED 7-bit
//    [0, 127] over the range [min(row_min, 0), max(row_max, 0)] with an
//    asymmetric zero-point. Capping at 127 (not 255) makes the AVX2/AVX-512
//    `maddubs` pairwise u8×s8 → i16 sums structurally incapable of
//    saturating (127·127·2 = 32258 < 32767), so the integer accumulation
//    is EXACT — no backend-dependent clamping.
//  * Weights are quantized offline per OUTPUT ROW to symmetric int8
//    [-127, 127], with the per-row sum of quantized weights precomputed
//    so the activation zero-point can be folded out of the inner loop:
//        Σ_p (qa−zp)·qw = Σ_p qa·qw − zp·rowsum.
//  * The inner product runs in pure int32 through the dispatch table
//    (KernelTable::int8_gemm_nt_acc — integer math, associative, exact);
//    the ONLY float rounding happens here in shared non-variant code:
//        c[i,j] = sa[i]·sw[j]·float(acc − zp[i]·rowsum[j]) + bias[j].
//    Identical machine code for every backend ⇒ identical output bits.

#pragma once

#include <cstddef>
#include <cstdint>

namespace optinter {

/// Quantized activation values are capped at this (unsigned 7-bit).
inline constexpr int32_t kInt8ActMax = 127;
/// Symmetric weight quantization range.
inline constexpr int32_t kInt8WeightMax = 127;

/// Per-row dynamic activation quantization of x[m×k]:
///   q[i,t] = clamp(lrintf(x[i,t]/scale[i]) + zp[i], 0, 127).
/// The quantization range always includes 0 so ReLU-sparse rows stay
/// exact at zero. An all-zero row gets scale = 1, zp = 0, q = 0.
void QuantizeActivationRows(const float* x, size_t m, size_t k, uint8_t* q,
                            float* scale, int32_t* zp);

/// Per-output-row symmetric weight quantization of w[n×k]:
///   q[j,t] = clamp(lrintf(w[j,t]·127/max|w[j,·]|), -127, 127),
///   scale[j] = max|w[j,·]|/127, rowsum[j] = Σ_t q[j,t].
/// An all-zero row gets scale = 0 (its dequantized contribution is 0).
void QuantizeWeightsPerRow(const float* w, size_t n, size_t k, int8_t* q,
                           float* scale, int32_t* rowsum);

/// C[m×n] = dequant(Qa[m×k] · Qw[n×k]^T) + bias — an int8 Linear
/// forward. `bias` may be null. Integer accumulation goes through the
/// active dispatch table; the fp32 epilogue is shared code (see file
/// comment). Serial.
void Int8GemmNT(const uint8_t* a, const float* a_scale, const int32_t* a_zp,
                const int8_t* b, const float* b_scale,
                const int32_t* b_rowsum, const float* bias, float* c,
                size_t m, size_t k, size_t n);

}  // namespace optinter
