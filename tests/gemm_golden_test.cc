// Golden-bits gate for the three GEMM drivers.
//
// golden_bits_test pins a whole tiny pipeline, but its shapes never
// reach a reduction longer than one kKC = 256 block or GemmTN's chunked
// path (its largest GemmTN is ~0.7M multiply-adds, under the parallel
// threshold). This test sweeps GemmNN/GemmNT/GemmTN across those
// boundaries on every runtime kernel backend, at pool sizes 1 and 4,
// and folds every output into one FNV-1a hash per GEMM. The sweep:
//
//   k     ∈ {8, 255, 256, 257, 688, 1520}    (one, two and six kKC blocks)
//   m     ∈ {1, MR−1, MR+1, 64, 65, 512, 2048} (row tiles, GemmTN chunks)
//   n     ∈ {1, 31, 32, 33, 64, 128, 129, 688} (fallback, panels, tails)
//   alpha ∈ {1, 0.37}, beta ∈ {0, 0.5, 1}
//
// MR is the backend's register-tile height (KernelTable::gemm_mr). Shapes
// up to 2^18 multiply-adds run every (alpha, beta) pair; larger ones run
// one pair, cycling with the shape index; shapes over 2^24 are skipped
// except the criteo_like first-layer MLP shapes, which run at (1, 0) and
// (1, 1). Extra shapes give GemmTN chunk counts 4 to 7 (m = 100…200) and
// chunks of four kKC blocks (m = 8192).
// Inputs are fixed pseudo-random values, the same on every host.
//
// The NT sweep runs a second time through PackNT + GemmNTPacked (weights
// packed once, as a published model's MLP runs them); it must hash to
// the same recorded GemmNT golden, so the pack-once entry point is pinned
// to GemmNT's bits with no constants of its own.
//
// A GEMM change that claims "same bits" must leave these hashes alone.
// Goldens are keyed by (build configuration, kernel backend) like
// golden_bits_test's; an unrecorded configuration skips and prints its
// lines. To re-record, run gemm_golden_test in each configuration and
// paste the printed "gemm golden:" lines.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "golden_util.h"
#include "tensor/dispatch.h"
#include "tensor/kernels.h"

namespace optinter {
namespace {

using testing::BackendGuard;
using testing::BuildConfig;
using testing::Fnv1a;
using testing::kFnvBasis;

struct GemmHashes {
  uint64_t nn = kFnvBasis;
  uint64_t nt = kFnvBasis;
  uint64_t tn = kFnvBasis;

  bool operator==(const GemmHashes&) const = default;
};

struct GemmGolden {
  const char* config;   // BuildConfig()
  const char* backend;  // KernelTable::name
  GemmHashes hashes;
};

// Recorded with GCC 12 on x86-64 (a host with AVX-512) before the GEMM
// driver read A in place and folded GemmTN's partials per C tile, which
// they pin as bit-neutral. Keys are the configurations CI tests: the
// default build (the TSan build gives the same bits),
// -DOPTINTER_DISABLE_SIMD=ON, and the ASan/UBSan build.
const std::vector<GemmGolden> kGemmGoldens = {
    {"avx2", "avx512",
     {0xec8e9819c7e96f5cull, 0x32e36a7cf8013777ull, 0xf314c6a5d36aab11ull}},
    {"avx2", "avx2-fma",
     {0x2663d2db92b932a7ull, 0xf5d5fd029a1380fbull, 0xfd7601014b476e75ull}},
    {"avx2", "sse2",
     {0x82443d74d72c7346ull, 0xad5f8dd63bd3a4acull, 0x1fd83a5c145133fcull}},
    {"avx2", "scalar",
     {0x797b1dba547768e1ull, 0xc0e44e989de4c5ebull, 0x0772341b80c60710ull}},
    {"nosimd", "scalar",
     {0x797b1dba547768e1ull, 0xc0e44e989de4c5ebull, 0x0772341b80c60710ull}},
    {"asan-ubsan", "avx512",
     {0xec8e9819c7e96f5cull, 0x32e36a7cf8013777ull, 0xf314c6a5d36aab11ull}},
    {"asan-ubsan", "avx2-fma",
     {0x2663d2db92b932a7ull, 0xf5d5fd029a1380fbull, 0xfd7601014b476e75ull}},
    {"asan-ubsan", "sse2",
     {0x82443d74d72c7346ull, 0xad5f8dd63bd3a4acull, 0x1fd83a5c145133fcull}},
    {"asan-ubsan", "scalar",
     {0x797b1dba547768e1ull, 0xc0e44e989de4c5ebull, 0x0772341b80c60710ull}},
};

// Deterministic values in [-1, 1) from a 32-bit LCG: no library
// distribution, so every host and standard library sees the same inputs.
std::vector<float> FixedValues(size_t count, uint32_t seed) {
  std::vector<float> v(count);
  uint32_t s = seed;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>(s >> 8) * (2.0f / 16777216.0f) - 1.0f;
  }
  return v;
}

// The sweep described in the file comment on the active backend, and its
// NT half again through PackNT + GemmNTPacked (`nt_packed`).
struct SweepResult {
  GemmHashes hashes;
  uint64_t nt_packed = kFnvBasis;
};

SweepResult SweepHashes(size_t mr) {
  // Pools large enough for the biggest A (2048×1520), B and C (2048×688).
  const std::vector<float> a = FixedValues(2048 * 1520, 1);
  const std::vector<float> b = FixedValues(2048 * 688, 2);
  const std::vector<float> c0 = FixedValues(2048 * 688, 3);
  std::vector<float> c(c0.size());
  const float kAlphas[] = {1.0f, 0.37f};
  const float kBetas[] = {0.0f, 0.5f, 1.0f};

  SweepResult result;
  GemmHashes& h = result.hashes;
  const auto run = [&](size_t m, size_t k, size_t n, float alpha,
                       float beta) {
    // NN: C[m×n] = A[m×k]·B[k×n]; NT: B given as [n×k]; both take the
    // same prefix of the B pool. TN: C[k×n] = A[m×k]^T·B[m×n].
    std::memcpy(c.data(), c0.data(), m * n * sizeof(float));
    GemmNN(a.data(), b.data(), c.data(), m, k, n, alpha, beta);
    h.nn = Fnv1a(c.data(), m * n * sizeof(float), h.nn);
    std::memcpy(c.data(), c0.data(), m * n * sizeof(float));
    GemmNT(a.data(), b.data(), c.data(), m, k, n, alpha, beta);
    h.nt = Fnv1a(c.data(), m * n * sizeof(float), h.nt);
    std::memcpy(c.data(), c0.data(), m * n * sizeof(float));
    GemmNTPacked(a.data(), PackNT(b.data(), k, n), c.data(), m, alpha, beta);
    result.nt_packed = Fnv1a(c.data(), m * n * sizeof(float),
                             result.nt_packed);
    std::memcpy(c.data(), c0.data(), k * n * sizeof(float));
    GemmTN(a.data(), b.data(), c.data(), m, k, n, alpha, beta);
    h.tn = Fnv1a(c.data(), k * n * sizeof(float), h.tn);
  };

  size_t shape = 0;
  for (size_t m : {size_t{1}, mr - 1, mr + 1, size_t{64}, size_t{65},
                   size_t{512}, size_t{2048}}) {
    for (size_t k : {8, 255, 256, 257, 688, 1520}) {
      for (size_t n : {1, 31, 32, 33, 64, 128, 129, 688}) {
        const size_t work = m * k * n;
        if (work > (size_t{1} << 24)) continue;
        for (size_t ab = 0; ab < 6; ++ab) {
          if (work > (size_t{1} << 18) && ab != shape % 6) continue;
          run(m, k, n, kAlphas[ab / 3], kBetas[ab % 3]);
        }
        ++shape;
      }
    }
  }
  for (size_t k : {688, 1520}) {
    run(512, k, 128, 1.0f, 0.0f);
    run(512, k, 128, 1.0f, 1.0f);
  }
  // GemmTN chunk counts the sweep misses (4 to 7: the fold tree's
  // uneven shapes), and chunks longer than one kKC block (8 × 1024 rows).
  for (size_t m : {100, 160, 180, 200}) run(m, 257, 129, 0.37f, 0.5f);
  run(8192, 8, 64, 1.0f, 0.0f);
  run(8192, 8, 64, 0.37f, 0.5f);
  return result;
}

std::string GoldenLine(const char* config, const char* backend,
                       const GemmHashes& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", {0x%016llxull, 0x%016llxull, "
                "0x%016llxull}},",
                config, backend, static_cast<unsigned long long>(h.nn),
                static_cast<unsigned long long>(h.nt),
                static_cast<unsigned long long>(h.tn));
  return buf;
}

// Restores the global pool size when the test returns.
struct PoolGuard {
  size_t threads = ThreadPool::Global().num_threads();
  ~PoolGuard() { ThreadPool::SetGlobalThreads(threads); }
};

TEST(GemmGoldenTest, SweepMatchesRecordedBitsOnEveryBackend) {
  BackendGuard backend_guard;
  PoolGuard pool_guard;
  const char* config = BuildConfig();
  bool recorded = false;
  for (const GemmGolden& g : kGemmGoldens) {
    recorded |= config == std::string(g.config);
  }
  std::string missing;
  for (const KernelTable* table : AvailableKernelBackends()) {
    ASSERT_TRUE(SelectKernelBackendForTest(table->name));
    const GemmGolden* want = nullptr;
    for (const GemmGolden& g : kGemmGoldens) {
      if (config == std::string(g.config) &&
          std::strcmp(g.backend, table->name) == 0) {
        want = &g;
      }
    }
    if (recorded && want == nullptr) missing += std::string(" ") + table->name;
    for (size_t threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      const SweepResult sweep = SweepHashes(table->gemm_mr);
      const GemmHashes& h = sweep.hashes;
      const std::string line = GoldenLine(config, table->name, h);
      std::printf("gemm golden (threads=%zu): %s\n", threads, line.c_str());
      // Unrecorded configurations still hold the packed NT to GemmNT.
      EXPECT_EQ(sweep.nt_packed, h.nt)
          << "PackNT + GemmNTPacked differs from GemmNT on backend "
          << table->name << " at " << threads << " pool threads";
      if (want == nullptr) continue;
      EXPECT_TRUE(h == want->hashes)
          << "bits moved on backend " << table->name << " at " << threads
          << " pool threads\n  got:  " << line << "\n  want: "
          << GoldenLine(want->config, want->backend, want->hashes);
    }
  }
  if (!recorded) {
    GTEST_SKIP() << "no GEMM goldens recorded for configuration '" << config
                 << "'";
  }
  EXPECT_TRUE(missing.empty())
      << "no GEMM golden recorded for backend(s):" << missing;
}

// A pack belongs to the kernel table that wrote it (its panel width is
// the backend's kNR); GemmNTPacked under another table must refuse.
TEST(GemmGoldenDeathTest, PackedUnderAnotherTableRefuses) {
  const std::vector<const KernelTable*> tables = AvailableKernelBackends();
  if (tables.size() < 2) GTEST_SKIP() << "one kernel backend on this host";
  BackendGuard backend_guard;
  const std::vector<float> a = FixedValues(4 * 64, 1);
  const std::vector<float> b = FixedValues(64 * 64, 2);
  std::vector<float> c(4 * 64);
  ASSERT_TRUE(SelectKernelBackendForTest(tables[0]->name));
  const PackedNT packed = PackNT(b.data(), 64, 64);
  EXPECT_EQ(packed.table(), tables[0]);
  ASSERT_TRUE(SelectKernelBackendForTest(tables[1]->name));
  EXPECT_DEATH(GemmNTPacked(a.data(), packed, c.data(), 4),
               std::string("packed under kernel table '") + tables[0]->name +
                   "' used while '" + tables[1]->name + "' is active");
}

}  // namespace
}  // namespace optinter
