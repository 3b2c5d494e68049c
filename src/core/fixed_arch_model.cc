#include "core/fixed_arch_model.h"

#include <cstring>

#include "common/thread_pool.h"
#include "nn/layers.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace optinter {

namespace {

std::vector<FactorizeFn> PairFns(std::vector<FactorizeFn> pair_fns,
                                 size_t num_pairs, FactorizeFn fallback) {
  if (pair_fns.empty()) pair_fns.assign(num_pairs, fallback);
  return pair_fns;
}

// Row source over the rows gathered for a training step.
struct GatheredRows {
  const Tensor& emb;
  const Tensor& cross;
  const Tensor& triple;
  size_t s2;

  void Embeddings(size_t k, float* zr) const {
    std::memcpy(zr, emb.row(k), emb.cols() * sizeof(float));
  }
  void Pair(size_t k, size_t slot, float* dst) const {
    std::memcpy(dst, cross.row(k) + slot * s2, s2 * sizeof(float));
  }
  void Triples(size_t k, float* dst) const {
    std::memcpy(dst, triple.row(k), triple.cols() * sizeof(float));
  }
};

// fp32 table reads for TableRows.
struct Fp32Tables {
  const FixedArchModel& m;

  void Cat(size_t f, int32_t id, float* dst) const {
    m.feature_embedding().cat_table(f).CopyRow(id, dst);
  }
  void Pair(size_t slot, int32_t id, float* dst) const {
    m.cross_embedding()->table(slot).CopyRow(id, dst);
  }
  void Triple(size_t t, int32_t id, float* dst) const {
    m.triple_embedding()->table(t).CopyRow(id, dst);
  }
};

}  // namespace

FixedArchModel::FixedArchModel(const EncodedDataset& data,
                               const Architecture& arch,
                               const HyperParams& hp, std::string name,
                               std::vector<size_t> memorized_triples,
                               std::vector<FactorizeFn> pair_fns)
    : name_(std::move(name)),
      arch_(arch),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend),
      layout_(arch_,
              PairFns(std::move(pair_fns), arch_.size(), hp.factorize_fn),
              data.num_categorical(), emb_.output_dim(), hp.embed_dim,
              hp.cross_embed_dim, memorized_triples.size()) {
  std::vector<size_t> mem_pairs;
  for (const InteractionLayout::Block& blk : layout_.blocks) {
    if (blk.method == InterMethod::kMemorize) mem_pairs.push_back(blk.pair);
  }
  if (!mem_pairs.empty()) {
    cross_emb_ = std::make_unique<CrossEmbedding>(
        data, CrossKind::kPair, std::move(mem_pairs), hp.cross_embed_dim,
        hp.lr_cross, hp.l2_cross, &rng_, hp.cross_backend);
  }
  if (!memorized_triples.empty()) {
    triple_emb_ = std::make_unique<CrossEmbedding>(
        data, CrossKind::kTriple, std::move(memorized_triples),
        hp.cross_embed_dim, hp.lr_cross, hp.l2_cross, &rng_,
        hp.cross_backend);
  }

  MlpConfig cfg;
  cfg.hidden = hp.mlp_hidden;
  cfg.out_dim = 1;
  cfg.layer_norm = hp.layer_norm;
  cfg.lr = hp.lr_orig;
  cfg.l2 = hp.l2_orig;
  mlp_ = std::make_unique<Mlp>("mlp", layout_.z_cols(), cfg, &rng_);
  mlp_->RegisterParams(&dense_opt_);
}

void FixedArchModel::OnFreeze() const {
  mlp_packs_.reserve(mlp_->linears().size());
  for (const Linear& lin : mlp_->linears()) {
    mlp_packs_.push_back(
        PackNT(lin.weight.value.data(), lin.in_dim(), lin.out_dim()));
  }
}

void FixedArchModel::MlpForward(const Tensor& z, Tensor* y,
                                MlpWorkspace* ws) const {
  // frozen() is the acquire that makes OnFreeze's packs visible.
  if (!frozen()) {
    mlp_->Forward(z, y, ws);
    return;
  }
  OPTINTER_TRACE_SPAN("mlp_forward");
  mlp_->ForwardWith(z, y, ws, [&](size_t li, const Tensor& in, Tensor* out) {
    mlp_->linears()[li].Forward(in, mlp_packs_[li], out);
  });
}

void FixedArchModel::MlpLogits(ForwardContext* ctx) const {
  MlpForward(ctx->z, &ctx->mlp_out, &ctx->mlp);
  const size_t b = ctx->z.rows();
  ctx->logits.resize(b);
  for (size_t k = 0; k < b; ++k) ctx->logits[k] = ctx->mlp_out.at(k, 0);
}

void FixedArchModel::PrepareBatch(const Batch& batch,
                                  PreparedBatch* prep) const {
  OPTINTER_TRACE_SPAN("prepare_batch");
  prep->BeginFill(batch);
  emb_.Prepare(batch, prep);
  if (cross_emb_) cross_emb_->Prepare(batch, &prep->dedup, &prep->cross);
  if (triple_emb_) triple_emb_->Prepare(batch, &prep->dedup, &prep->triple);
}

float FixedArchModel::ForwardBackward(const PreparedBatch& prep) {
  CheckNotFrozen("ForwardBackward");
  emb_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  if (cross_emb_) {
    cross_emb_->ForwardPrepared(prep.cross, prep.size, &ctx_.cross_out);
  }
  if (triple_emb_) {
    triple_emb_->ForwardPrepared(prep.triple, prep.size, &ctx_.triple_out);
  }
  const size_t b = prep.size;
  {
    OPTINTER_TRACE_SPAN("z_assemble");
    AssembleRows(layout_,
                 GatheredRows{ctx_.emb_out, ctx_.cross_out, ctx_.triple_out,
                              layout_.s2},
                 b, &ctx_.z);
  }
  MlpLogits(&ctx_);

  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(),
                                       prep.labels.data(), b,
                                       dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t k = 0; k < b; ++k) dmlp_out_.at(k, 0) = dlogits_[k];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);

  // The forward layout walked backward: each block's slice of dz goes to
  // its memorized row or through FactorizedBackward to e^o.
  const size_t emb_cols = layout_.emb_cols;
  const size_t s1 = layout_.s1;
  const size_t s2 = layout_.s2;
  demb_.Resize({b, emb_cols});
  if (cross_emb_) dcross_.Resize({b, cross_emb_->output_dim()});
  if (triple_emb_) dtriple_.Resize({b, triple_emb_->output_dim()});
  auto bwd_rows = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const float* dzr = dz_.row(k);
      std::memcpy(demb_.row(k), dzr, emb_cols * sizeof(float));
      const float* e = ctx_.emb_out.row(k);
      float* de = demb_.row(k);
      for (const InteractionLayout::Block& blk : layout_.blocks) {
        const float* dblock = dzr + blk.offset;
        if (blk.method == InterMethod::kMemorize) {
          std::memcpy(dcross_.row(k) + blk.slot * s2, dblock,
                      s2 * sizeof(float));
        } else {
          FactorizedBackward(blk.fn, s1, e + blk.i * s1, e + blk.j * s1,
                             dblock, 1.0f, de + blk.i * s1, de + blk.j * s1);
        }
      }
      if (triple_emb_) {
        std::memcpy(dtriple_.row(k), dzr + layout_.triple_offset,
                    dtriple_.cols() * sizeof(float));
      }
    }
  };
  {
    OPTINTER_TRACE_SPAN("interaction_bwd");
    // Each row writes its own demb/dcross/dtriple rows → bit-identical to
    // the serial loop under any chunking.
    if (b * layout_.z_cols() >= kParallelAssembleFloats) {
      ParallelForChunks(0, b, bwd_rows, /*min_chunk=*/32);
    } else {
      bwd_rows(0, b);
    }
  }
  emb_.BackwardPrepared(demb_, prep, prep.cat);
  if (cross_emb_) cross_emb_->BackwardPrepared(dcross_, prep.cross);
  if (triple_emb_) triple_emb_->BackwardPrepared(dtriple_, prep.triple);
  return loss;
}

void FixedArchModel::ApplyGrads() {
  OPTINTER_TRACE_SPAN("apply_grads");
  emb_.StepPrepared();
  if (cross_emb_) cross_emb_->StepPrepared();
  if (triple_emb_) triple_emb_->StepPrepared();
  dense_opt_.Step();
  dense_opt_.ZeroGrad();
}

void FixedArchModel::Predict(const Batch& batch, std::vector<float>* probs,
                             ForwardContext* ctx) const {
  // Reads only immutable parameters, so concurrent calls with distinct
  // contexts are safe.
  {
    OPTINTER_TRACE_SPAN("gather_assemble");
    AssembleRows(layout_,
                 TableRows(batch, emb_, cross_emb_.get(), triple_emb_.get(),
                           Fp32Tables{*this}),
                 batch.size, &ctx->z);
  }
  MlpLogits(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void FixedArchModel::CollectState(std::vector<Tensor*>* out) {
  emb_.CollectState(out);
  if (cross_emb_) cross_emb_->CollectState(out);
  if (triple_emb_) triple_emb_->CollectState(out);
  for (DenseParam* p : dense_opt_.params()) out->push_back(&p->value);
}

size_t FixedArchModel::ParamCount() const {
  size_t total = emb_.ParamCount() + mlp_->ParamCount();
  if (cross_emb_) total += cross_emb_->ParamCount();
  if (triple_emb_) total += triple_emb_->ParamCount();
  return total;
}

std::unique_ptr<FixedArchModel> FixedArchModel::MakeFnn(
    const EncodedDataset& data, const HyperParams& hp) {
  return std::make_unique<FixedArchModel>(data, AllNaive(data.num_pairs()),
                                          hp, "FNN");
}

std::unique_ptr<FixedArchModel> FixedArchModel::MakeOptInterM(
    const EncodedDataset& data, const HyperParams& hp) {
  return std::make_unique<FixedArchModel>(
      data, AllMemorize(data.num_pairs()), hp, "OptInter-M");
}

std::unique_ptr<FixedArchModel> FixedArchModel::MakeOptInterF(
    const EncodedDataset& data, const HyperParams& hp) {
  return std::make_unique<FixedArchModel>(
      data, AllFactorize(data.num_pairs()), hp, "OptInter-F");
}

}  // namespace optinter
