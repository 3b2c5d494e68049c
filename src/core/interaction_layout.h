// The interaction layer laid out once, with the one row assembler and the
// one backward walk that the search (paper §II-C, Eq. 18), the re-train
// model (§II-B3, Eq. 19) and its quantized serving views all run.
//
// An MLP input row is z = [e^o | one block per non-naïve pair, in pair
// order | memorized triples, s2 columns each]. A block holds one or more
// arms: a memorized cross embedding (width s2) or FactorizedForward(e^o_i,
// e^o_j). A re-train block has one arm, written straight into z. A search
// block has the arms {memorize, fns...} and holds Eq. 18's weighted sum
// Σ_a w_a · arm_a, zero-padded to its widest arm; the caller passes the
// weights per pair. Naïve is the zero vector: no arm, no columns.
//
// AssembleRows takes its row source as a template parameter, so the
// per-row calls stay devirtualized. A source provides
//   void Embeddings(size_t k, float* z_row) const;       // e^o
//   const float* PairRow(size_t k, size_t slot,          // memorized: its
//                        float* buf) const;              // row, or buf filled
//   void Triples(size_t k, float* dst) const;            // all triples
// Factorized arms read the embedding columns of z itself. The sources
// are GatheredRows (a training step's gathered rows) and TableRows over
// fp32 or int8/bf16 tables.
//
// Bits (DESIGN.md): a weighted block sums its arms per column in arm order
// from +0, one simd::MulAdd each, in a register. The backward walk's dp
// sums each row's exact double products in column order and adds the rows
// into dp in row order; four rows advance together, one per VecD4 lane.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/batch.h"
#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/interaction.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace optinter {

/// Where each interaction block sits in the MLP input z. Immutable once
/// built.
struct InteractionLayout {
  /// One candidate embedding of a block.
  struct Arm {
    InterMethod method;  // kMemorize or kFactorize
    FactorizeFn fn{};    // the factorization function (kFactorize)
    size_t width = 0;    // set by the layout: s2 or FactorizedWidth(fn, s1)
  };

  /// One non-naïve pair's block.
  struct Block {
    // Its first arm's method and function, so a single-arm block (the
    // re-train model's every block) is walked without reading `arms`.
    InterMethod method;
    FactorizeFn fn;
    uint32_t num_arms;
    size_t pair;       // canonical pair index
    size_t i, j;       // the pair's categorical fields
    size_t offset;     // first z column of the block
    size_t width;      // its widest arm
    size_t slot;       // memorized-pair storage index (kMemorize arm)
    size_t first_arm;  // its arms in `arms`
  };

  /// Most arms of one block: memorize and each factorization function.
  static constexpr size_t kMaxArms = 4;

  /// `pair_arms` gives per pair, in canonical order over `num_categorical`
  /// fields, its block's arms: none for naïve, one for re-training, the
  /// candidates {memorize, fns...} for the search. Memorized arms take
  /// storage slots in pair order; `num_triples` triples are memorized.
  /// A weighted (multi-arm) block's weights are per pair, one per arm and
  /// then naïve's.
  InteractionLayout(const std::vector<std::vector<Arm>>& pair_arms,
                    size_t num_categorical, size_t emb_cols, size_t s1,
                    size_t s2, size_t num_triples);

  size_t z_cols() const { return emb_cols + inter_dim; }

  size_t s1;
  size_t s2;
  size_t emb_cols;       // original-feature embedding columns
  size_t inter_dim;      // pair blocks + triples
  size_t triple_offset;  // first triple column (z_cols() when none)
  size_t num_pairs;      // canonical pairs, naïve ones included
  size_t pair_slots = 0;
  size_t weight_stride = 0;   // weights per pair (0: no weighted block)
  size_t scratch_floats = 0;  // a weighted block's arms, widths summed
  std::vector<Block> blocks;  // non-naïve pairs, in pair order
  std::vector<Arm> arms;      // every block's arms, in block order
};

/// Row source over the rows gathered for a training step.
struct GatheredRows {
  const Tensor& emb;
  const Tensor& cross;
  const Tensor& triple;
  size_t s2;

  void Embeddings(size_t k, float* zr) const {
    std::memcpy(zr, emb.row(k), emb.cols() * sizeof(float));
  }
  const float* PairRow(size_t k, size_t slot, float*) const {
    return cross.row(k) + slot * s2;
  }
  void Triples(size_t k, float* dst) const {
    std::memcpy(dst, triple.row(k), triple.cols() * sizeof(float));
  }
};

/// fp32 table reads for TableRows.
struct Fp32Tables {
  void Row(size_t, const EmbeddingTable& fp32, int32_t id, float* dst) const {
    fp32.CopyRow(id, dst);
  }
};

/// Row source over embedding tables, for any batch encoded like the
/// construction dataset. The constructor resolves the batch's id columns
/// once and runs the layers' compat CHECKs: field counts, id-column width,
/// and that the cross/triple ids it reads are built. `Tables` reads row
/// `id` of table `t` (numbered cat fields, then pair slots, then triples),
/// whose fp32 layer table is `fp32`, as fp32 or from int8/bf16:
///   void Row(size_t t, const EmbeddingTable& fp32, int32_t id,
///            float* dst) const;
/// Continuous fields read the fp32 FeatureEmbedding rows.
template <typename Tables = Fp32Tables>
class TableRows {
 public:
  TableRows(const Batch& batch, const FeatureEmbedding& emb,
            const CrossEmbedding* pairs, const CrossEmbedding* triples,
            Tables tables = {})
      : data_(*batch.data),
        rows_(batch.rows),
        emb_(emb),
        pairs_(pairs),
        triples_(triples),
        triple_begin_(emb.num_categorical() +
                      (pairs != nullptr ? pairs->num_blocks() : 0)),
        tables_(tables) {
    emb.CheckSchema(data_);
    if (pairs != nullptr) pair_ids_ = pairs->Ids(data_);
    if (triples != nullptr) triple_ids_ = triples->Ids(data_);
  }

  void Embeddings(size_t k, float* zr) const {
    const size_t r = rows_[k];
    const size_t num_cat = emb_.num_categorical();
    const size_t dim = emb_.dim();
    for (size_t f = 0; f < num_cat; ++f) {
      tables_.Row(f, emb_.cat_table(f), data_.cat(r, f), zr + f * dim);
    }
    for (size_t f = 0; f < emb_.num_continuous(); ++f) {
      emb_.ContinuousRow(f, data_.cont(r, f), zr + (num_cat + f) * dim);
    }
  }
  const float* PairRow(size_t k, size_t slot, float* buf) const {
    tables_.Row(emb_.num_categorical() + slot, pairs_->table(slot),
                pair_ids_.at(rows_[k], pairs_->columns()[slot]), buf);
    return buf;
  }
  void Triples(size_t k, float* dst) const {
    for (size_t t = 0; t < triples_->num_blocks(); ++t) {
      tables_.Row(triple_begin_ + t, triples_->table(t),
                  triple_ids_.at(rows_[k], triples_->columns()[t]),
                  dst + t * triples_->dim());
    }
  }

 private:
  const EncodedDataset& data_;
  const size_t* rows_;
  const FeatureEmbedding& emb_;
  const CrossEmbedding* pairs_;
  const CrossEmbedding* triples_;
  size_t triple_begin_;
  CrossIds pair_ids_;
  CrossIds triple_ids_;
  Tables tables_;
};

/// One arm of a weighted block for one row: its values x[0:width], or
/// x ⊙ y (a Hadamard arm, formed inline), and its weight.
struct WeightedArm {
  const float* x;
  const float* y;
  size_t width;
  float w;
};

/// `acc` += w · arm over the kLanes columns from c, lanes past the arm's
/// width left as they are.
inline simd::VecF AccumulateArm(const WeightedArm& arm, bool first, size_t c,
                                simd::VecF acc) {
  constexpr size_t kL = simd::kLanes;
  if (arm.width <= c) return acc;
  const simd::VecF w = simd::Set1(arm.w);
  if (arm.width >= c + kL) {
    const simd::VecF x =
        arm.y == nullptr
            ? simd::LoadU(arm.x + c)
            : simd::Mul(simd::LoadU(arm.x + c), simd::LoadU(arm.y + c));
    return simd::MulAdd(w, x, acc);
  }
  const size_t n = arm.width - c;
  if (first) {
    // acc is +0 in every lane, and +0 + w·(±0) is +0 for a finite w:
    // zero-padded lanes keep their bits.
    const simd::VecF x = arm.y == nullptr
                             ? simd::LoadPartial(arm.x + c, n)
                             : simd::Mul(simd::LoadPartial(arm.x + c, n),
                                         simd::LoadPartial(arm.y + c, n));
    return simd::MulAdd(w, x, acc);
  }
  // A later arm narrower than the block: its lanes alone, as scalars.
  float lanes[kL];
  simd::StoreU(lanes, acc);
  for (size_t t = 0; t < n; ++t) {
    const float x =
        arm.y == nullptr ? arm.x[c + t] : arm.x[c + t] * arm.y[c + t];
    lanes[t] = simd::MulAddScalar(arm.w, x, lanes[t]);
  }
  return simd::LoadU(lanes);
}

/// Eq. 18: block[0:width] = Σ_a w_a · arm_a, summed from +0 in arm order
/// one kLanes column chunk at a time in a register.
inline void CombineArms(const WeightedArm* arms, size_t num_arms,
                        size_t width, float* block) {
  constexpr size_t kL = simd::kLanes;
  for (size_t c = 0; c < width; c += kL) {
    simd::VecF acc = simd::Zero();
    for (size_t a = 0; a < num_arms; ++a) {
      acc = AccumulateArm(arms[a], a == 0, c, acc);
    }
    if (c + kL <= width) {
      simd::StoreU(block + c, acc);
    } else {
      float lanes[kL];
      simd::StoreU(lanes, acc);
      std::memcpy(block + c, lanes, (width - c) * sizeof(float));
    }
  }
}

/// Writes row `k` of `src` into `zr` (layout.z_cols() floats); `scratch`
/// holds layout.scratch_floats floats.
template <typename Source>
void AssembleRow(const InteractionLayout& layout, const Source& src,
                 size_t k, const float* weights, float* scratch, float* zr) {
  src.Embeddings(k, zr);
  const size_t s1 = layout.s1;
  const size_t s2 = layout.s2;
  for (const InteractionLayout::Block& blk : layout.blocks) {
    float* block = zr + blk.offset;
    const float* ei = zr + blk.i * s1;
    const float* ej = zr + blk.j * s1;
    if (blk.num_arms == 1) {
      if (blk.method == InterMethod::kMemorize) {
        const float* mem = src.PairRow(k, blk.slot, block);
        if (mem != block) CopyFloats(block, mem, s2);
      } else {
        FactorizedForward(blk.fn, s1, ei, ej, block);
      }
      continue;
    }
    const InteractionLayout::Arm* arms = layout.arms.data() + blk.first_arm;
    const float* w = weights + blk.pair * layout.weight_stride;
    WeightedArm in[InteractionLayout::kMaxArms];
    float* buf = scratch;
    for (size_t a = 0; a < blk.num_arms; ++a) {
      // Weights are read before the block is written: they may alias it.
      in[a] = {buf, nullptr, arms[a].width, w[a]};
      if (arms[a].method == InterMethod::kMemorize) {
        in[a].x = src.PairRow(k, blk.slot, buf);
      } else if (arms[a].fn == FactorizeFn::kHadamard) {
        in[a].x = ei;
        in[a].y = ej;
        continue;
      } else {
        FactorizedForward(arms[a].fn, s1, ei, ej, buf);
      }
      buf += arms[a].width;
    }
    CombineArms(in, blk.num_arms, blk.width, block);
  }
  if (layout.triple_offset < layout.z_cols()) {
    src.Triples(k, zr + layout.triple_offset);
  }
}

/// Rows × floats of z below which assembly stays serial.
inline constexpr size_t kParallelAssembleFloats = 1u << 15;

/// z = [b × layout.z_cols()], every element written; `weights` (per pair,
/// layout.weight_stride each) feed the weighted blocks. Each row assembles
/// into its own z row, so fanning across the pool is bit-identical to the
/// serial loop.
template <typename Source>
void AssembleRows(const InteractionLayout& layout, const Source& src,
                  size_t b, Tensor* z, const float* weights = nullptr) {
  CHECK(layout.weight_stride == 0 || weights != nullptr);
  z->ResizeForOverwrite({b, layout.z_cols()});
  auto assemble = [&](size_t lo, size_t hi) {
    // Per thread, so chunks and concurrent Predicts never share it.
    static thread_local std::vector<float> scratch;
    if (scratch.size() < layout.scratch_floats) {
      scratch.resize(layout.scratch_floats);
    }
    for (size_t k = lo; k < hi; ++k) {
      AssembleRow(layout, src, k, weights, scratch.data(), z->row(k));
    }
  };
  if (b * layout.z_cols() >= kParallelAssembleFloats) {
    ParallelForChunks(0, b, assemble, /*min_chunk=*/32);
  } else {
    assemble(0, b);
  }
}

/// AssembleRowsBackward's outputs, kept by a model across steps.
struct InteractionGrads {
  Tensor demb;     // [b × emb_cols]
  Tensor dcross;   // [b × pair_slots · s2]
  Tensor dtriple;  // [b × triple columns]
  /// [num_pairs × weight_stride]: d(loss)/d(weight) summed over the batch.
  std::vector<double> dp;
  std::vector<double> dp_partials;
};

/// The layout walked backward from dz over the `rows` and `weights` that
/// assembled z; every output element is written. A single-arm block
/// copies its dz slice to its memorized row or runs FactorizedBackward; a
/// weighted block scales each arm's gradient by its weight and sums its
/// dp in double, the arm recomputed. dp sums serially below
/// kParallelAssembleFloats and otherwise as per-chunk partials of a fixed
/// grid merged in chunk order: its bits do not depend on the pool size.
void AssembleRowsBackward(const InteractionLayout& layout,
                          const GatheredRows& rows, const float* weights,
                          const Tensor& dz, InteractionGrads* grads);

}  // namespace optinter
