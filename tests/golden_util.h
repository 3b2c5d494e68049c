// Shared helpers for the golden-bits tests (golden_bits_test.cc,
// gemm_golden_test.cc): the build-configuration key goldens are recorded
// under, FNV-1a hashing of output bytes, and a guard that restores auto
// kernel dispatch.

#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/dispatch.h"

namespace optinter {
namespace testing {

// Optimized GCC x86-64 builds only: -O0 and other compilers contract and
// schedule floating point differently, so they have no goldens.
inline const char* BuildConfig() {
#if !defined(__OPTIMIZE__) || !defined(__GNUC__) || defined(__clang__) || \
    !defined(__x86_64__)
  return "unrecorded";
#elif defined(OPTINTER_DISABLE_SIMD) && !defined(__SANITIZE_ADDRESS__)
  return "nosimd";
#elif defined(OPTINTER_DISABLE_SIMD)
  return "unrecorded";
#elif defined(__SANITIZE_ADDRESS__) && defined(__AVX2__) && defined(__FMA__)
  return "asan-ubsan";
#elif defined(__AVX2__) && defined(__FMA__)
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
