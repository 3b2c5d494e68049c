// Shared helpers for the golden-bits tests (golden_bits_test.cc,
// gemm_golden_test.cc): the build-configuration key goldens are recorded
// under, FNV-1a hashing of output bytes, and a guard that restores auto
// kernel dispatch.

#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/dispatch.h"
#include "tensor/simd.h"

namespace optinter {
namespace testing {

// Optimized GCC x86-64 builds only: -O0 and other compilers contract and
// schedule floating point differently, so they have no goldens. The key is
// the compile-time SIMD backend simd.h selected, not the ISA macros alone:
// an -march=native build on an AVX-512 host runs 16-lane header kernels,
// whose bits no recorded table holds, so it reports "unrecorded".
inline const char* BuildConfig() {
#if !defined(__OPTIMIZE__) || !defined(__GNUC__) || defined(__clang__) || \
    !defined(__x86_64__)
  return "unrecorded";
#elif defined(OPTINTER_SIMD_SCALAR) && defined(OPTINTER_DISABLE_SIMD) && \
    !defined(__AVX__) && !defined(__SANITIZE_ADDRESS__)
  return "nosimd";
#elif defined(OPTINTER_SIMD_AVX2) && defined(__SANITIZE_ADDRESS__)
  return "asan-ubsan";
#elif defined(OPTINTER_SIMD_AVX2)
  return "avx2";
#else
  return "unrecorded";
#endif
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

inline uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Restores the startup kernel selection when the test returns.
struct BackendGuard {
  ~BackendGuard() { SelectKernelBackendForTest("auto"); }
};

}  // namespace testing
}  // namespace optinter
