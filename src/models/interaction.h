// Feature-interaction modelling methods (paper §II-A2).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/simd.h"

namespace optinter {

/// The three ways to model one feature interaction. Enum order matches
/// the paper's "[x, y, z] = #memorize, #factorize, #naïve" reporting
/// convention (Tables VI and VIII).
enum class InterMethod : uint8_t {
  kMemorize = 0,
  kFactorize = 1,
  kNaive = 2,
};

inline const char* InterMethodName(InterMethod m) {
  switch (m) {
    case InterMethod::kMemorize:
      return "memorize";
    case InterMethod::kFactorize:
      return "factorize";
    case InterMethod::kNaive:
      return "naive";
  }
  return "?";
}

/// Per-pair method assignment in canonical pair order — an "architecture"
/// in the paper's sense.
using Architecture = std::vector<InterMethod>;

/// Factorization functions for the factorized method (paper §II-C1 lists
/// Hadamard Product ⊗, Pointwise-Addition ⊕ and generalized products; the
/// paper uses Hadamard as the representative and notes the framework
/// "can be extended easily" — this enum is that extension).
enum class FactorizeFn : uint8_t {
  kHadamard = 0,       // e_i ⊙ e_j, width s1 (paper Eq. 14)
  kInnerProduct = 1,   // ⟨e_i, e_j⟩, width 1 (IPNN-style)
  kPointwiseSum = 2,   // e_i + e_j, width s1
};

const char* FactorizeFnName(FactorizeFn fn);

/// Parses "hadamard" / "inner" / "sum".
bool ParseFactorizeFn(const std::string& name, FactorizeFn* fn);

/// Output width of a factorized interaction embedding.
size_t FactorizedWidth(FactorizeFn fn, size_t embed_dim);

/// out[0:width] = fn(e_i, e_j).
void FactorizedForward(FactorizeFn fn, size_t embed_dim, const float* ei,
                       const float* ej, float* out);

/// The Hadamard case of FactorizedBackward, inline for the interaction
/// walk: dei += (scale·dout) ⊙ ej and dej += (scale·dout) ⊙ ei.
inline void HadamardBackward(size_t n, const float* ei, const float* ej,
                             const float* dout, float scale, float* dei,
                             float* dej) {
  // The scaled gradient is formed once and reused by both muladds.
  constexpr size_t kL = simd::kLanes;
  const simd::VecF scale_v = simd::Set1(scale);
  size_t t = 0;
  for (; t + kL <= n; t += kL) {
    const simd::VecF sd = simd::Mul(scale_v, simd::LoadU(dout + t));
    simd::StoreU(dei + t, simd::MulAdd(sd, simd::LoadU(ej + t),
                                       simd::LoadU(dei + t)));
    simd::StoreU(dej + t, simd::MulAdd(sd, simd::LoadU(ei + t),
                                       simd::LoadU(dej + t)));
  }
  for (; t < n; ++t) {
    const float sd = scale * dout[t];
    dei[t] = simd::MulAddScalar(sd, ej[t], dei[t]);
    dej[t] = simd::MulAddScalar(sd, ei[t], dej[t]);
  }
}

/// Accumulates d e_i / d e_j given scale * d(out).
void FactorizedBackward(FactorizeFn fn, size_t embed_dim, const float* ei,
                        const float* ej, const float* dout, float scale,
                        float* dei, float* dej);

/// Counts per method: {#memorize, #factorize, #naive} — the paper's
/// "[x, y, z]" architecture summaries.
struct ArchCounts {
  size_t memorize = 0;
  size_t factorize = 0;
  size_t naive = 0;
};

ArchCounts CountArchitecture(const Architecture& arch);

/// "[x,y,z]" string as printed in the paper's tables.
std::string ArchCountsToString(const ArchCounts& counts);

/// Uniform architecture helpers.
Architecture AllMemorize(size_t num_pairs);
Architecture AllFactorize(size_t num_pairs);
Architecture AllNaive(size_t num_pairs);

}  // namespace optinter
