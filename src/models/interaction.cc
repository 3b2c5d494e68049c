#include "models/interaction.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "tensor/kernels.h"

namespace optinter {

const char* FactorizeFnName(FactorizeFn fn) {
  switch (fn) {
    case FactorizeFn::kHadamard:
      return "hadamard";
    case FactorizeFn::kInnerProduct:
      return "inner";
    case FactorizeFn::kPointwiseSum:
      return "sum";
  }
  return "?";
}

bool ParseFactorizeFn(const std::string& name, FactorizeFn* fn) {
  if (name == "hadamard") {
    *fn = FactorizeFn::kHadamard;
  } else if (name == "inner") {
    *fn = FactorizeFn::kInnerProduct;
  } else if (name == "sum") {
    *fn = FactorizeFn::kPointwiseSum;
  } else {
    return false;
  }
  return true;
}

size_t FactorizedWidth(FactorizeFn fn, size_t embed_dim) {
  return fn == FactorizeFn::kInnerProduct ? 1 : embed_dim;
}

void FactorizedForward(FactorizeFn fn, size_t embed_dim, const float* ei,
                       const float* ej, float* out) {
  switch (fn) {
    case FactorizeFn::kHadamard:
      Hadamard(embed_dim, ei, ej, out);
      break;
    case FactorizeFn::kInnerProduct:
      out[0] = Dot(embed_dim, ei, ej);
      break;
    case FactorizeFn::kPointwiseSum:
      for (size_t t = 0; t < embed_dim; ++t) out[t] = ei[t] + ej[t];
      break;
  }
}

void FactorizedBackward(FactorizeFn fn, size_t embed_dim, const float* ei,
                        const float* ej, const float* dout, float scale,
                        float* dei, float* dej) {
  switch (fn) {
    case FactorizeFn::kHadamard:
      HadamardBackward(embed_dim, ei, ej, dout, scale, dei, dej);
      break;
    case FactorizeFn::kInnerProduct: {
      const float g = scale * dout[0];
      Axpy(embed_dim, g, ej, dei);
      Axpy(embed_dim, g, ei, dej);
      break;
    }
    case FactorizeFn::kPointwiseSum:
      for (size_t t = 0; t < embed_dim; ++t) {
        dei[t] += scale * dout[t];
        dej[t] += scale * dout[t];
      }
      break;
  }
}

ArchCounts CountArchitecture(const Architecture& arch) {
  ArchCounts c;
  for (InterMethod m : arch) {
    switch (m) {
      case InterMethod::kMemorize:
        ++c.memorize;
        break;
      case InterMethod::kFactorize:
        ++c.factorize;
        break;
      case InterMethod::kNaive:
        ++c.naive;
        break;
    }
  }
  return c;
}

std::string ArchCountsToString(const ArchCounts& counts) {
  return StrFormat("[%zu,%zu,%zu]", counts.memorize, counts.factorize,
                   counts.naive);
}

Architecture AllMemorize(size_t num_pairs) {
  return Architecture(num_pairs, InterMethod::kMemorize);
}

Architecture AllFactorize(size_t num_pairs) {
  return Architecture(num_pairs, InterMethod::kFactorize);
}

Architecture AllNaive(size_t num_pairs) {
  return Architecture(num_pairs, InterMethod::kNaive);
}

}  // namespace optinter
