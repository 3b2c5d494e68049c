// Portable fixed-width SIMD abstraction for the kernel layer.
//
// One backend is selected at compile time:
//
//   OPTINTER_SIMD_AVX512  x86-64 with AVX-512 F/BW/DQ/VL+FMA
//                                                 (16 lanes, fused muladd)
//   OPTINTER_SIMD_AVX2    x86-64 with AVX2+FMA   (8 lanes, fused muladd)
//   OPTINTER_SIMD_SSE2    x86-64 baseline         (4 lanes, unfused muladd)
//   OPTINTER_SIMD_NEON    aarch64 / ARMv7 NEON    (4 lanes, fused muladd)
//   OPTINTER_SIMD_SCALAR  everything else, or -DOPTINTER_DISABLE_SIMD=ON
//                                                 (1 lane)
//
// The abstraction is deliberately small: lane-wise arithmetic, compare
// masks + select, a correctly-rounded sqrt/div, a polynomial Exp, one
// horizontal reduction with a FIXED lane-combination order, and a
// kLanes×kLanes in-register Transpose (pure data movement, used by the
// GEMM weight pack). Everything a
// kernel computes through these ops is deterministic for a given backend:
//
//  * Lane-wise ops (Add/Mul/MulAdd/Div/Sqrt/Min/Max/Select/Exp) produce
//    the same bits for a given element value regardless of which lane —
//    or which scalar tail — processes it, PROVIDED the scalar tail uses
//    the matching `*Scalar` helpers in simd_ops.inc. This is what lets
//    kernels run under pool-size-dependent chunking (ParallelForChunks)
//    and still be bit-identical at any thread count: an element's result
//    never depends on its position relative to a chunk or vector-group
//    boundary.
//  * ReduceAdd combines lanes in a fixed pairwise tree, so reductions
//    that accumulate vector partials in a shape-determined order are
//    themselves deterministic per backend.
//
// Results DIFFER ACROSS BACKENDS (FMA contracts rounding, Exp is a
// polynomial on the vector backends but libm on the scalar one). The
// repo-wide determinism contract is therefore per (build, selected
// backend): see DESIGN.md §5 and §11.
//
// The op bodies live in simd_ops.inc so the runtime-dispatch layer
// (tensor/dispatch.h, kernels_dispatch_*.cc) can instantiate additional
// copies of the same ops under `#pragma GCC target` regions. This header
// remains the ONE compile-time instantiation every header-level kernel in
// the tree uses; nothing about its interface changed when the bodies
// moved.

#pragma once

#include <cmath>
#include <cstddef>

#if !defined(OPTINTER_DISABLE_SIMD) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512DQ__) &&          \
    defined(__AVX512VL__) && defined(__FMA__)
#define OPTINTER_SIMD_AVX512 1
#include <immintrin.h>
#elif !defined(OPTINTER_DISABLE_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define OPTINTER_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(OPTINTER_DISABLE_SIMD) && defined(__SSE2__)
#define OPTINTER_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(OPTINTER_DISABLE_SIMD) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__))
#define OPTINTER_SIMD_NEON 1
#include <arm_neon.h>
#else
#define OPTINTER_SIMD_SCALAR 1
#endif

namespace optinter {
namespace simd {

#include "tensor/simd_ops.inc"

}  // namespace simd
}  // namespace optinter
