// The re-train model's interaction layer laid out once (paper §II-B3,
// Eq. 19), and the one row assembler that every forward pass of
// FixedArchModel and its quantized serving views runs.
//
// An MLP input row is z = [e^o | one block per non-naïve pair, in pair
// order | memorized triples]: a memorized pair's block is its cross
// embedding (width s2), a factorized pair's is FactorizedForward(e^o_i,
// e^o_j), and each triple takes s2 columns. Naïve pairs take no columns
// and have no block.
//
// AssembleRows takes its row source as a template parameter, so the
// per-row calls stay devirtualized. A source provides
//   void Embeddings(size_t k, float* z_row) const;        // e^o
//   void Pair(size_t k, size_t slot, float* dst) const;   // memorized
//   void Triples(size_t k, float* dst) const;             // all triples
// Factorized blocks read the embedding columns of z itself. The sources
// are the rows gathered for a training step (fixed_arch_model.cc) and
// TableRows below over fp32 or int8/bf16 tables.

#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.h"
#include "data/batch.h"
#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/interaction.h"
#include "tensor/tensor.h"

namespace optinter {

/// Where each interaction block sits in the MLP input z. Immutable once
/// built.
struct InteractionLayout {
  /// One memorized or factorized pair's block.
  struct Block {
    InterMethod method;  // kMemorize or kFactorize
    FactorizeFn fn;      // the factorization function (kFactorize)
    size_t pair;         // canonical pair index
    size_t i, j;         // the pair's categorical fields
    size_t offset;       // first z column of the block
    size_t slot;         // memorized-pair storage index (kMemorize)
  };

  /// `arch` and `pair_fns` are per pair in canonical order over
  /// `num_categorical` fields; `num_triples` triples are memorized.
  InteractionLayout(const Architecture& arch,
                    const std::vector<FactorizeFn>& pair_fns,
                    size_t num_categorical, size_t emb_cols, size_t s1,
                    size_t s2, size_t num_triples);

  size_t z_cols() const { return emb_cols + inter_dim; }

  size_t s1;
  size_t s2;
  size_t emb_cols;       // original-feature embedding columns
  size_t inter_dim;      // pair blocks + triples
  size_t triple_offset;  // first triple column (z_cols() when none)
  std::vector<Block> blocks;  // non-naïve pairs, in pair order
};

/// Row source over embedding tables, for any batch encoded like the
/// construction dataset. The constructor resolves the batch's id columns
/// once and runs the layers' compat CHECKs: field counts, id-column width,
/// and that the cross/triple ids it reads are built. `Tables` reads one
/// row of a table, fp32 (CopyRow) or int8/bf16 (DequantRow):
///   void Cat(size_t f, int32_t id, float* dst) const;
///   void Pair(size_t slot, int32_t id, float* dst) const;
///   void Triple(size_t t, int32_t id, float* dst) const;
/// Continuous fields read the fp32 FeatureEmbedding rows.
template <typename Tables>
class TableRows {
 public:
  TableRows(const Batch& batch, const FeatureEmbedding& emb,
            const CrossEmbedding* pairs, const CrossEmbedding* triples,
            Tables tables)
      : data_(*batch.data),
        rows_(batch.rows),
        emb_(emb),
        pairs_(pairs),
        triples_(triples),
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
      tables_.Cat(f, data_.cat(r, f), zr + f * dim);
    }
    for (size_t f = 0; f < emb_.num_continuous(); ++f) {
      emb_.ContinuousRow(f, data_.cont(r, f), zr + (num_cat + f) * dim);
    }
  }
  void Pair(size_t k, size_t slot, float* dst) const {
    tables_.Pair(slot, pair_ids_.at(rows_[k], pairs_->columns()[slot]),
                 dst);
  }
  void Triples(size_t k, float* dst) const {
    for (size_t t = 0; t < triples_->num_blocks(); ++t) {
      tables_.Triple(t, triple_ids_.at(rows_[k], triples_->columns()[t]),
                     dst + t * triples_->dim());
    }
  }

 private:
  const EncodedDataset& data_;
  const size_t* rows_;
  const FeatureEmbedding& emb_;
  const CrossEmbedding* pairs_;
  const CrossEmbedding* triples_;
  CrossIds pair_ids_;
  CrossIds triple_ids_;
  Tables tables_;
};

/// Writes row `k` of `src` into `zr` (layout.z_cols() floats).
template <typename Source>
void AssembleRow(const InteractionLayout& layout, const Source& src,
                 size_t k, float* zr) {
  src.Embeddings(k, zr);
  const size_t s1 = layout.s1;
  for (const InteractionLayout::Block& blk : layout.blocks) {
    if (blk.method == InterMethod::kMemorize) {
      src.Pair(k, blk.slot, zr + blk.offset);
    } else {
      FactorizedForward(blk.fn, s1, zr + blk.i * s1, zr + blk.j * s1,
                        zr + blk.offset);
    }
  }
  if (layout.triple_offset < layout.z_cols()) {
    src.Triples(k, zr + layout.triple_offset);
  }
}

/// Rows × floats of z below which assembly stays serial.
inline constexpr size_t kParallelAssembleFloats = 1u << 15;

/// z = [b × layout.z_cols()], every element written. Each row assembles
/// into its own z row, so fanning across the pool is bit-identical to the
/// serial loop.
template <typename Source>
void AssembleRows(const InteractionLayout& layout, const Source& src,
                  size_t b, Tensor* z) {
  z->ResizeForOverwrite({b, layout.z_cols()});
  auto assemble = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) AssembleRow(layout, src, k, z->row(k));
  };
  if (b * layout.z_cols() >= kParallelAssembleFloats) {
    ParallelForChunks(0, b, assemble, /*min_chunk=*/32);
  } else {
    assemble(0, b);
  }
}

}  // namespace optinter
