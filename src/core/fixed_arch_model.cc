#include "core/fixed_arch_model.h"

#include "nn/layers.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace optinter {

namespace {

// Per pair, its method's one arm (none when naïve).
std::vector<std::vector<InteractionLayout::Arm>> PairArms(
    const Architecture& arch, std::vector<FactorizeFn> pair_fns,
    FactorizeFn fallback) {
  if (pair_fns.empty()) pair_fns.assign(arch.size(), fallback);
  CHECK_EQ(pair_fns.size(), arch.size());
  std::vector<std::vector<InteractionLayout::Arm>> arms(arch.size());
  for (size_t p = 0; p < arch.size(); ++p) {
    if (arch[p] != InterMethod::kNaive) arms[p] = {{arch[p], pair_fns[p]}};
  }
  return arms;
}

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
      layout_(PairArms(arch_, std::move(pair_fns), hp.factorize_fn),
              data.num_categorical(), emb_.output_dim(), hp.embed_dim,
              hp.cross_embed_dim, memorized_triples.size()) {
  std::vector<size_t> mem_pairs;
  for (size_t p = 0; p < arch_.size(); ++p) {
    if (arch_[p] == InterMethod::kMemorize) mem_pairs.push_back(p);
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

void FixedArchModel::MlpLogits(ForwardContext* ctx) const {
  // frozen() is the acquire that makes OnFreeze's packs visible.
  if (!frozen()) {
    mlp_->Forward(ctx->z, &ctx->mlp_out, &ctx->mlp);
  } else {
    OPTINTER_TRACE_SPAN("mlp_forward");
    mlp_->ForwardWith(ctx->z, &ctx->mlp_out, &ctx->mlp,
                      [&](size_t li, const Tensor& in, Tensor* out) {
                        mlp_->linears()[li].Forward(in, mlp_packs_[li], out);
                      });
  }
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
  const GatheredRows rows{ctx_.emb_out, ctx_.cross_out, ctx_.triple_out,
                          layout_.s2};
  {
    OPTINTER_TRACE_SPAN("z_assemble");
    AssembleRows(layout_, rows, b, &ctx_.z);
  }
  MlpLogits(&ctx_);

  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(),
                                       prep.labels.data(), b,
                                       dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t k = 0; k < b; ++k) dmlp_out_.at(k, 0) = dlogits_[k];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);
  AssembleRowsBackward(layout_, rows, /*weights=*/nullptr, dz_, &grads_);
  emb_.BackwardPrepared(grads_.demb, prep, prep.cat);
  if (cross_emb_) cross_emb_->BackwardPrepared(grads_.dcross, prep.cross);
  if (triple_emb_) triple_emb_->BackwardPrepared(grads_.dtriple, prep.triple);
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
                 TableRows(batch, emb_, cross_emb_.get(), triple_emb_.get()),
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
