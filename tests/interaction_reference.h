// The interaction walk as a plain scalar loop, kept only as the bit
// reference for interaction_walk_test: AssembleRow, AssembleRows and
// AssembleRowsBackward before the walk combined in registers and summed dp
// four rows at a time. The combine is `block[t] += w · arm[t]` as the
// compiler contracts it; dp is one serial double chain per row and arm.
// A source here provides
//   void Pair(size_t k, size_t slot, float* dst) const;
// in place of PairRow (see WithPair in the test).

#pragma once

#include <cstring>
#include <vector>

#include "core/interaction_layout.h"

namespace optinter {
namespace testing {

/// Writes row `k` of `src` into `zr` (layout.z_cols() floats); `scratch`
/// holds layout.scratch_floats floats.
template <typename Source>
void ReferenceAssembleRow(const InteractionLayout& layout, const Source& src,
                          size_t k, const float* weights, float* scratch,
                          float* zr) {
  src.Embeddings(k, zr);
  const size_t s1 = layout.s1;
  for (const InteractionLayout::Block& blk : layout.blocks) {
    const auto arm_into = [&](const InteractionLayout::Arm& arm, float* dst) {
      if (arm.method == InterMethod::kMemorize) {
        src.Pair(k, blk.slot, dst);
      } else {
        FactorizedForward(arm.fn, s1, zr + blk.i * s1, zr + blk.j * s1, dst);
      }
    };
    float* block = zr + blk.offset;
    if (blk.num_arms == 1) {
      arm_into({blk.method, blk.fn}, block);
      continue;
    }
    const InteractionLayout::Arm* arms = layout.arms.data() + blk.first_arm;
    // Eq. 18 in scalar expressions: the compiler's FMA contraction of
    // `+= w · arm` decides these bits (pinned by the search goldens).
    const float* w = weights + blk.pair * layout.weight_stride;
    std::memset(block, 0, blk.width * sizeof(float));
    for (size_t a = 0; a < blk.num_arms; ++a) {
      arm_into(arms[a], scratch);
      const float wa = w[a];  // a local: `block` may alias the weights
      for (size_t t = 0; t < arms[a].width; ++t) block[t] += wa * scratch[t];
    }
  }
  if (layout.triple_offset < layout.z_cols()) {
    src.Triples(k, zr + layout.triple_offset);
  }
}

/// z = [b × layout.z_cols()], every element written; `weights` (per pair,
/// layout.weight_stride each) feed the weighted blocks. Each row assembles
/// into its own z row, so fanning across the pool is bit-identical to the
/// serial loop.
template <typename Source>
void ReferenceAssembleRows(const InteractionLayout& layout,
                           const Source& src, size_t b, Tensor* z,
                           const float* weights = nullptr) {
  CHECK(layout.weight_stride == 0 || weights != nullptr);
  z->ResizeForOverwrite({b, layout.z_cols()});
  auto assemble = [&](size_t lo, size_t hi) {
    // Per thread, so chunks and concurrent Predicts never share it.
    static thread_local std::vector<float> scratch;
    if (scratch.size() < layout.scratch_floats) {
      scratch.resize(layout.scratch_floats);
    }
    for (size_t k = lo; k < hi; ++k) {
      ReferenceAssembleRow(layout, src, k, weights, scratch.data(),
                           z->row(k));
    }
  };
  if (b * layout.z_cols() >= kParallelAssembleFloats) {
    ParallelForChunks(0, b, assemble, /*min_chunk=*/32);
  } else {
    assemble(0, b);
  }
}

inline void ReferenceAssembleRowsBackward(const InteractionLayout& layout,
                                          const GatheredRows& rows,
                                          const float* weights,
                                          const Tensor& dz,
                                          InteractionGrads* grads) {
  CHECK(layout.weight_stride == 0 || weights != nullptr);
  const size_t b = dz.rows();
  const size_t s1 = layout.s1;
  const size_t s2 = layout.s2;
  const size_t triple_cols = layout.z_cols() - layout.triple_offset;
  Tensor& demb = grads->demb;
  Tensor& dcross = grads->dcross;
  demb.ResizeForOverwrite({b, layout.emb_cols});
  dcross.ResizeForOverwrite({b, layout.pair_slots * s2});
  grads->dtriple.ResizeForOverwrite({b, triple_cols});
  const size_t stride = layout.num_pairs * layout.weight_stride;
  grads->dp.assign(stride, 0.0);
  // Rows write disjoint output rows; dp sums over rows into `dp_acc`.
  auto body = [&](size_t lo, size_t hi, double* dp_acc) {
    static thread_local std::vector<float> arm_out;  // a recomputed arm
    if (arm_out.size() < layout.scratch_floats) {
      arm_out.resize(layout.scratch_floats);
    }
    for (size_t k = lo; k < hi; ++k) {
      const float* dzr = dz.row(k);
      const float* e = rows.emb.row(k);
      float* de = demb.row(k);
      std::memcpy(de, dzr, layout.emb_cols * sizeof(float));
      for (const InteractionLayout::Block& blk : layout.blocks) {
        const float* dblock = dzr + blk.offset;
        const float* ei = e + blk.i * s1;
        const float* ej = e + blk.j * s1;
        float* dei = de + blk.i * s1;
        float* dej = de + blk.j * s1;
        if (blk.num_arms == 1) {
          if (blk.method == InterMethod::kMemorize) {
            std::memcpy(dcross.row(k) + blk.slot * s2, dblock,
                        s2 * sizeof(float));
          } else {
            FactorizedBackward(blk.fn, s1, ei, ej, dblock, 1.0f, dei, dej);
          }
          continue;
        }
        const InteractionLayout::Arm* arms =
            layout.arms.data() + blk.first_arm;
        const float* w = weights + blk.pair * layout.weight_stride;
        double* dpw = dp_acc + blk.pair * layout.weight_stride;
        for (size_t a = 0; a < blk.num_arms; ++a) {
          const float wa = w[a];  // a local: `dmem` may alias the weights
          double dpa = 0.0;
          if (arms[a].method == InterMethod::kMemorize) {
            const float* mem = rows.cross.row(k) + blk.slot * s2;
            float* dmem = dcross.row(k) + blk.slot * s2;
            for (size_t t = 0; t < s2; ++t) {
              dpa += static_cast<double>(dblock[t]) * mem[t];
              dmem[t] = wa * dblock[t];
            }
          } else {
            FactorizedForward(arms[a].fn, s1, ei, ej, arm_out.data());
            for (size_t t = 0; t < arms[a].width; ++t) {
              dpa += static_cast<double>(dblock[t]) * arm_out[t];
            }
            FactorizedBackward(arms[a].fn, s1, ei, ej, dblock, wa, dei, dej);
          }
          dpw[a] += dpa;
        }
      }
      if (triple_cols > 0) {
        std::memcpy(grads->dtriple.row(k), dzr + layout.triple_offset,
                    triple_cols * sizeof(float));
      }
    }
  };
  const FixedChunks grid = MakeFixedChunks(b, /*min_chunk=*/32);
  if (b * layout.z_cols() < kParallelAssembleFloats || grid.count == 1) {
    body(0, b, grads->dp.data());
    return;
  }
  // The fixed grid keeps dp's summation tree independent of the pool.
  grads->dp_partials.assign(grid.count * stride, 0.0);
  double* partials = grads->dp_partials.data();
  ParallelForEachChunk(grid, [&](size_t c) {
    body(grid.lo(c), grid.hi(c), partials + c * stride);
  });
  for (size_t c = 0; c < grid.count; ++c) {
    const double* part = partials + c * stride;
    for (size_t i = 0; i < stride; ++i) grads->dp[i] += part[i];
  }
}

}  // namespace testing
}  // namespace optinter
