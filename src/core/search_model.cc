#include "core/search_model.h"

#include <numeric>

#include "obs/trace.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "tensor/kernels.h"

namespace optinter {

namespace {
std::vector<size_t> AllPairIndices(const EncodedDataset& data) {
  std::vector<size_t> pairs(data.num_pairs());
  std::iota(pairs.begin(), pairs.end(), 0);
  return pairs;
}

// Every pair's candidates {memorize, fns...}; naïve is implicit.
std::vector<std::vector<InteractionLayout::Arm>> SearchArms(
    size_t num_pairs, const std::vector<FactorizeFn>& fns) {
  std::vector<InteractionLayout::Arm> arms = {{InterMethod::kMemorize}};
  for (FactorizeFn fn : fns) arms.push_back({InterMethod::kFactorize, fn});
  return std::vector(num_pairs, arms);
}
}  // namespace

float AnnealedTemperature(const HyperParams& hp, size_t epoch,
                          size_t epochs) {
  const float frac = epochs > 1 ? static_cast<float>(epoch) /
                                      static_cast<float>(epochs - 1)
                                : 1.0f;
  return hp.gumbel_temp_start +
         frac * (hp.gumbel_temp_end - hp.gumbel_temp_start);
}

SearchModel::SearchModel(const EncodedDataset& data, const HyperParams& hp,
                         UpdateMode mode, std::vector<FactorizeFn> fns)
    : data_(data),
      mode_(mode),
      fns_(fns.empty() ? std::vector<FactorizeFn>{hp.factorize_fn}
                       : std::move(fns)),
      tau_(hp.gumbel_temp_start),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend),
      layout_(SearchArms(data.num_pairs(), fns_), data.num_categorical(),
              emb_.output_dim(), hp.embed_dim, hp.cross_embed_dim,
              /*num_triples=*/0) {
  // Metadata-only datasets (vocab sizes without row payload) are fine.
  CHECK(!data.cross_vocab_sizes.empty()) << "search requires cross features";
  cross_emb_ = std::make_unique<CrossEmbedding>(
      data, CrossKind::kPair, AllPairIndices(data), hp.cross_embed_dim,
      hp.lr_cross, hp.l2_cross, &rng_, hp.cross_backend);

  alpha_.name = "arch/alpha";
  alpha_.Resize({data.num_pairs(), num_candidates()});
  // Near-uniform start with a tiny symmetric perturbation: pairs whose
  // gradients never separate the candidates resolve to an arbitrary
  // method, mirroring the paper's behaviour on uninformative pairs.
  UniformInit(&alpha_.value, -0.05, 0.05, &rng_);
  alpha_.lr = hp.lr_arch;
  alpha_.l2 = hp.l2_arch;
  arch_opt_.AddParam(&alpha_);

  MlpConfig cfg;
  cfg.hidden = hp.mlp_hidden;
  cfg.out_dim = 1;
  cfg.layer_norm = hp.layer_norm;
  cfg.lr = hp.lr_orig;
  cfg.l2 = hp.l2_orig;
  mlp_ = std::make_unique<Mlp>("mlp", layout_.z_cols(), cfg, &rng_);
  mlp_->RegisterParams(&theta_opt_);
}

void SearchModel::SampleProbs(std::vector<float>* probs) {
  OPTINTER_TRACE_SPAN("gumbel_sample");
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  probs->resize(num_pairs * k);
  for (size_t p = 0; p < num_pairs; ++p) {
    const float* a = alpha_.value.row(p);
    float* pr = probs->data() + p * k;
    for (size_t c = 0; c < k; ++c) {
      pr[c] = (a[c] + static_cast<float>(rng_.Gumbel())) / tau_;
    }
    Softmax(k, pr, pr);  // in place: reads each logit before writing it
  }
}

void SearchModel::ExpectedProbs(size_t p, float* out) const {
  const size_t k = num_candidates();
  const float* a = alpha_.value.row(p);
  for (size_t c = 0; c < k; ++c) out[c] = a[c] / tau_;
  Softmax(k, out, out);
}

void SearchModel::MlpLogits(ForwardContext* ctx) const {
  mlp_->Forward(ctx->z, &ctx->mlp_out, &ctx->mlp);
  const size_t b = ctx->z.rows();
  ctx->logits.resize(b);
  for (size_t r = 0; r < b; ++r) ctx->logits[r] = ctx->mlp_out.at(r, 0);
}

void SearchModel::PrepareBatch(const Batch& batch,
                               PreparedBatch* prep) const {
  OPTINTER_TRACE_SPAN("prepare_batch");
  prep->BeginFill(batch);
  emb_.Prepare(batch, prep);
  cross_emb_->Prepare(batch, &prep->dedup, &prep->cross);
}

float SearchModel::ForwardBackward(const PreparedBatch& prep) {
  OPTINTER_TRACE_SPAN("search_step");
  SampleProbs(&probs_cache_);
  const size_t b = prep.size;
  emb_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  cross_emb_->ForwardPrepared(prep.cross, b, &ctx_.cross_out);
  const GatheredRows rows{ctx_.emb_out, ctx_.cross_out, ctx_.triple_out,
                          layout_.s2};
  {
    OPTINTER_TRACE_SPAN("z_assemble");
    AssembleRows(layout_, rows, b, &ctx_.z, probs_cache_.data());
  }
  MlpLogits(&ctx_);
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t r = 0; r < b; ++r) dmlp_out_.at(r, 0) = dlogits_[r];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);
  // Also sums d(loss)/d(candidate probability) over the batch into
  // grads_.dp.
  AssembleRowsBackward(layout_, rows, probs_cache_.data(), dz_, &grads_);

  // Softmax backward into the architecture logits:
  //   da_k = (1/τ) · p_k · (dp_k − Σ_l p_l · dp_l).
  {
    OPTINTER_TRACE_SPAN("alpha_bwd");
    const size_t k = num_candidates();
    for (size_t p = 0; p < data_.num_pairs(); ++p) {
      const float* pr = probs_cache_.data() + p * k;
      const double* dpr = grads_.dp.data() + p * k;
      double weighted = 0.0;
      for (size_t c = 0; c < k; ++c) weighted += pr[c] * dpr[c];
      float* da = alpha_.grad.row(p);
      for (size_t c = 0; c < k; ++c) {
        da[c] += static_cast<float>(pr[c] * (dpr[c] - weighted) / tau_);
      }
    }
  }

  emb_.BackwardPrepared(grads_.demb, prep, prep.cat);
  cross_emb_->BackwardPrepared(grads_.dcross, prep.cross);
  return loss;
}

void SearchModel::ApplyGrads() {
  OPTINTER_TRACE_SPAN("apply_grads");
  emb_.StepPrepared();
  cross_emb_->StepPrepared();
  theta_opt_.Step();
  theta_opt_.ZeroGrad();
  if (mode_ == UpdateMode::kJoint) arch_opt_.Step();
  arch_opt_.ZeroGrad();
}

float SearchModel::ArchStep(const Batch& batch) {
  // α-only update: Θ gradients are computed but discarded.
  PrepareBatch(batch, step_prep());
  const float loss = ForwardBackward(*step_prep());
  emb_.ClearPreparedGrads();
  cross_emb_->ClearPreparedGrads();
  theta_opt_.ZeroGrad();
  arch_opt_.Step();
  arch_opt_.ZeroGrad();
  return loss;
}

void SearchModel::Predict(const Batch& batch, std::vector<float>* probs,
                          ForwardContext* ctx) const {
  // Noise-free expectation: p = softmax(α/τ).
  const size_t k = num_candidates();
  std::vector<float> p(data_.num_pairs() * k);
  for (size_t q = 0; q < data_.num_pairs(); ++q) {
    ExpectedProbs(q, p.data() + q * k);
  }
  {
    OPTINTER_TRACE_SPAN("gather_assemble");
    // Reads only immutable parameters, so concurrent calls with distinct
    // contexts are safe.
    AssembleRows(layout_,
                 TableRows(batch, emb_, cross_emb_.get(), nullptr),
                 batch.size, &ctx->z, p.data());
  }
  MlpLogits(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void SearchModel::CollectState(std::vector<Tensor*>* out) {
  emb_.CollectState(out);
  cross_emb_->CollectState(out);
  for (DenseParam* p : theta_opt_.params()) out->push_back(&p->value);
  out->push_back(&alpha_.value);
}

size_t SearchModel::ParamCount() const {
  return emb_.ParamCount() + cross_emb_->ParamCount() +
         mlp_->ParamCount() + alpha_.size();
}

size_t SearchModel::ArgmaxCandidate(size_t p, size_t lo, size_t hi) const {
  const float* a = alpha_.value.row(p);
  size_t best = lo;
  for (size_t c = lo + 1; c < hi; ++c) {
    if (a[c] > a[best]) best = c;
  }
  return best;
}

Architecture SearchModel::ExtractArchitecture() const {
  const size_t k = num_candidates();
  Architecture arch(data_.num_pairs());
  for (size_t p = 0; p < arch.size(); ++p) {
    const size_t best = ArgmaxCandidate(p, 0, k);
    arch[p] = best == 0       ? InterMethod::kMemorize
              : best == k - 1 ? InterMethod::kNaive
                              : InterMethod::kFactorize;
  }
  return arch;
}

std::vector<FactorizeFn> SearchModel::ExtractFactorizeFns() const {
  std::vector<FactorizeFn> out(data_.num_pairs());
  for (size_t p = 0; p < out.size(); ++p) {
    out[p] = fns_[ArgmaxCandidate(p, 1, num_candidates() - 1) - 1];
  }
  return out;
}

std::vector<float> SearchModel::PairProbabilities(size_t p) const {
  CHECK_LT(p, data_.num_pairs());
  std::vector<float> out(num_candidates());
  ExpectedProbs(p, out.data());
  return out;
}

}  // namespace optinter
