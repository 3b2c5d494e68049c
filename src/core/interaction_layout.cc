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
    CHECK_LE(blk.num_arms, kMaxArms)
        << "pair " << p << ": an arm repeats (memorize and each "
           "factorization function take one arm each)";
    if (blk.num_arms > 1) {
      weight_stride = std::max<size_t>(weight_stride, blk.num_arms + 1);
      size_t arm_floats = 0;
      for (size_t a = blk.first_arm; a < arms.size(); ++a) {
        arm_floats += arms[a].width;
      }
      scratch_floats = std::max(scratch_floats, arm_floats);
    }
    offset += blk.width;
    blocks.push_back(blk);
  }
  triple_offset = offset;
  inter_dim = offset + num_triples * s2 - emb_cols;
}

namespace {

using Block = InteractionLayout::Block;
using Arm = InteractionLayout::Arm;

constexpr size_t kL = simd::kLanes;
// Rows whose dp chains advance together, one per VecD4 lane.
constexpr size_t kTileRows = 4;

void ArmBackward(FactorizeFn fn, size_t s1, const float* ei, const float* ej,
                 const float* dout, float scale, float* dei, float* dej) {
  if (fn == FactorizeFn::kHadamard) {
    HadamardBackward(s1, ei, ej, dout, scale, dei, dej);
  } else {
    FactorizedBackward(fn, s1, ei, ej, dout, scale, dei, dej);
  }
}

// Row k's demb, dcross and dtriple: every element but dp.
void BackwardRow(const InteractionLayout& layout, const GatheredRows& rows,
                 const float* weights, const Tensor& dz, size_t k,
                 InteractionGrads* grads) {
  const size_t s1 = layout.s1;
  const size_t s2 = layout.s2;
  const float* dzr = dz.row(k);
  const float* e = rows.emb.row(k);
  float* de = grads->demb.row(k);
  float* dcross = grads->dcross.row(k);
  std::memcpy(de, dzr, layout.emb_cols * sizeof(float));
  for (const Block& blk : layout.blocks) {
    const float* dblock = dzr + blk.offset;
    const float* ei = e + blk.i * s1;
    const float* ej = e + blk.j * s1;
    float* dei = de + blk.i * s1;
    float* dej = de + blk.j * s1;
    if (blk.num_arms == 1) {
      if (blk.method == InterMethod::kMemorize) {
        CopyFloats(dcross + blk.slot * s2, dblock, s2);
      } else {
        ArmBackward(blk.fn, s1, ei, ej, dblock, 1.0f, dei, dej);
      }
      continue;
    }
    const Arm* arms = layout.arms.data() + blk.first_arm;
    const float* w = weights + blk.pair * layout.weight_stride;
    for (size_t a = 0; a < blk.num_arms; ++a) {
      const float wa = w[a];  // a local: `dmem` may alias the weights
      if (arms[a].method == InterMethod::kMemorize) {
        float* dmem = dcross + blk.slot * s2;
        const simd::VecF wv = simd::Set1(wa);
        size_t t = 0;
        for (; t + kL <= s2; t += kL) {
          simd::StoreU(dmem + t, simd::Mul(wv, simd::LoadU(dblock + t)));
        }
        for (; t < s2; ++t) dmem[t] = wa * dblock[t];
      } else {
        ArmBackward(arms[a].fn, s1, ei, ej, dblock, wa, dei, dej);
      }
    }
  }
  const size_t triple_cols = layout.z_cols() - layout.triple_offset;
  if (triple_cols > 0) {
    std::memcpy(grads->dtriple.row(k), dzr + layout.triple_offset,
                triple_cols * sizeof(float));
  }
}

// Σ_t (double)dz[t] · arm[t] over t in [from, width), arm = x or x ⊙ y,
// added to `acc` in column order; every product is exact.
double ArmDot(const float* dz, const float* x, const float* y, size_t from,
              size_t width, double acc) {
  for (size_t t = from; t < width; ++t) {
    const float arm = y == nullptr ? x[t] : x[t] * y[t];
    acc += static_cast<double>(dz[t]) * arm;
  }
  return acc;
}

// ArmDot for kTileRows rows at once, one row per VecD4 lane, over the
// columns [0, 4·⌊width/4⌋); returns where the rows' scalar tails start.
template <bool kProduct>
size_t TileArmDots(const float* const* dz, const float* const* x,
                   const float* const* y, size_t width, double* dots) {
  simd::VecD4 acc = simd::ZeroD4();
  size_t t = 0;
  for (; t + 4 <= width; t += 4) {
    simd::VecD4 prod[kTileRows];
    for (size_t r = 0; r < kTileRows; ++r) {
      const simd::VecD4 arm = kProduct ? simd::WidenMulD4(x[r] + t, y[r] + t)
                                       : simd::WidenD4(x[r] + t);
      prod[r] = simd::MulD4(simd::WidenD4(dz[r] + t), arm);
    }
    simd::TransposeD4(prod);  // prod[c]: column t + c, one row per lane
    acc = simd::AddD4(
        simd::AddD4(simd::AddD4(simd::AddD4(acc, prod[0]), prod[1]),
                    prod[2]),
        prod[3]);
  }
  simd::StoreD4(dots, acc);
  return t;
}

// dp over rows [k, k + rows_n), rows_n being 1 or kTileRows, into `dp_acc`:
// per weighted arm, each row's chain in column order, rows added in order.
void WeightGrads(const InteractionLayout& layout, const GatheredRows& rows,
                 const Tensor& dz, size_t k, size_t rows_n, float* scratch,
                 double* dp_acc) {
  const size_t s1 = layout.s1;
  const float* e[kTileRows];
  const float* mem[kTileRows];
  const float* dzr[kTileRows];
  for (size_t r = 0; r < rows_n; ++r) {
    e[r] = rows.emb.row(k + r);
    mem[r] = rows.cross.row(k + r);
    dzr[r] = dz.row(k + r);
  }
  for (const Block& blk : layout.blocks) {
    if (blk.num_arms == 1) continue;
    const Arm* arms = layout.arms.data() + blk.first_arm;
    double* dpw = dp_acc + blk.pair * layout.weight_stride;
    const float* d[kTileRows];
    for (size_t r = 0; r < rows_n; ++r) d[r] = dzr[r] + blk.offset;
    for (size_t a = 0; a < blk.num_arms; ++a) {
      const bool hadamard = arms[a].method == InterMethod::kFactorize &&
                            arms[a].fn == FactorizeFn::kHadamard;
      const float* x[kTileRows];
      const float* y[kTileRows] = {};
      for (size_t r = 0; r < rows_n; ++r) {
        if (arms[a].method == InterMethod::kMemorize) {
          x[r] = mem[r] + blk.slot * layout.s2;
        } else if (hadamard) {
          x[r] = e[r] + blk.i * s1;
          y[r] = e[r] + blk.j * s1;
        } else {
          float* arm = scratch + r * layout.scratch_floats;
          FactorizedForward(arms[a].fn, s1, e[r] + blk.i * s1,
                            e[r] + blk.j * s1, arm);
          x[r] = arm;
        }
      }
      double dots[kTileRows] = {};
      size_t t = 0;
      if (rows_n == kTileRows) {
        t = hadamard ? TileArmDots<true>(d, x, y, arms[a].width, dots)
                     : TileArmDots<false>(d, x, y, arms[a].width, dots);
      }
      for (size_t r = 0; r < rows_n; ++r) {
        dpw[a] += ArmDot(d[r], x[r], y[r], t, arms[a].width, dots[r]);
      }
    }
  }
}

}  // namespace

void AssembleRowsBackward(const InteractionLayout& layout,
                          const GatheredRows& rows, const float* weights,
                          const Tensor& dz, InteractionGrads* grads) {
  OPTINTER_TRACE_SPAN("interaction_bwd");
  CHECK(layout.weight_stride == 0 || weights != nullptr);
  const size_t b = dz.rows();
  grads->demb.ResizeForOverwrite({b, layout.emb_cols});
  grads->dcross.ResizeForOverwrite({b, layout.pair_slots * layout.s2});
  grads->dtriple.ResizeForOverwrite(
      {b, layout.z_cols() - layout.triple_offset});
  const size_t stride = layout.num_pairs * layout.weight_stride;
  grads->dp.assign(stride, 0.0);
  const bool parallel = b * layout.z_cols() >= kParallelAssembleFloats;
  if (layout.weight_stride == 0) {
    // No weighted block, so no dp: rows are independent.
    auto body = [&](size_t lo, size_t hi) {
      for (size_t k = lo; k < hi; ++k) {
        BackwardRow(layout, rows, nullptr, dz, k, grads);
      }
    };
    if (parallel) {
      ParallelForChunks(0, b, body, /*min_chunk=*/32);
    } else {
      body(0, b);
    }
    return;
  }
  // Rows write disjoint output rows; dp sums over rows into `dp_acc`.
  auto body = [&](size_t lo, size_t hi, double* dp_acc) {
    static thread_local std::vector<float> scratch;  // recomputed arms
    if (scratch.size() < kTileRows * layout.scratch_floats) {
      scratch.resize(kTileRows * layout.scratch_floats);
    }
    size_t k = lo;
    for (; k + kTileRows <= hi; k += kTileRows) {
      for (size_t r = 0; r < kTileRows; ++r) {
        BackwardRow(layout, rows, weights, dz, k + r, grads);
      }
      WeightGrads(layout, rows, dz, k, kTileRows, scratch.data(), dp_acc);
    }
    for (; k < hi; ++k) {
      BackwardRow(layout, rows, weights, dz, k, grads);
      WeightGrads(layout, rows, dz, k, 1, scratch.data(), dp_acc);
    }
  };
  const FixedChunks grid = MakeFixedChunks(b, /*min_chunk=*/32);
  if (!parallel || grid.count == 1) {
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
