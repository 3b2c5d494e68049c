#include "core/interaction_layout.h"

#include <algorithm>

#include "data/schema.h"
#include "obs/trace.h"

namespace optinter {

InteractionLayout::InteractionLayout(
    const std::vector<std::vector<Arm>>& pair_arms, size_t num_categorical,
    size_t emb_cols, size_t s1, size_t s2, size_t num_triples)
    : s1(s1), s2(s2), emb_cols(emb_cols), num_pairs(pair_arms.size()) {
  const std::vector<std::pair<size_t, size_t>> cat_pairs =
      EnumeratePairs(num_categorical);
  CHECK_EQ(pair_arms.size(), cat_pairs.size());
  size_t offset = emb_cols;
  for (size_t p = 0; p < pair_arms.size(); ++p) {
    if (pair_arms[p].empty()) continue;  // naïve
    const auto [i, j] = cat_pairs[p];
    const Arm& first = pair_arms[p][0];
    Block blk{first.method, first.fn,
              static_cast<uint32_t>(pair_arms[p].size()),
              p, i, j, offset, 0, 0, arms.size()};
    for (Arm arm : pair_arms[p]) {
      if (arm.method == InterMethod::kMemorize) {
        arm.width = s2;
        blk.slot = pair_slots++;
      } else {
        arm.width = FactorizedWidth(arm.fn, s1);
      }
      blk.width = std::max(blk.width, arm.width);
      arms.push_back(arm);
    }
    if (blk.num_arms > 1) {
      weight_stride = std::max<size_t>(weight_stride, blk.num_arms + 1);
      scratch_floats = std::max(scratch_floats, blk.width);
    }
    offset += blk.width;
    blocks.push_back(blk);
  }
  triple_offset = offset;
  inter_dim = offset + num_triples * s2 - emb_cols;
}

void AssembleRowsBackward(const InteractionLayout& layout,
                          const GatheredRows& rows, const float* weights,
                          const Tensor& dz, InteractionGrads* grads) {
  OPTINTER_TRACE_SPAN("interaction_bwd");
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

}  // namespace optinter
