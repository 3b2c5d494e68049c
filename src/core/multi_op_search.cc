#include "core/multi_op_search.h"

#include <cstring>
#include <numeric>

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
}  // namespace

MultiOpSearchModel::MultiOpSearchModel(const EncodedDataset& data,
                                       const HyperParams& hp,
                                       std::vector<FactorizeFn> fns)
    : data_(data),
      fns_(std::move(fns)),
      s1_(hp.embed_dim),
      s2_(hp.cross_embed_dim),
      tau_(hp.gumbel_temp_start),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend) {
  CHECK(data.has_cross()) << "search requires cross features";
  CHECK(!fns_.empty());
  cross_emb_ = std::make_unique<CrossEmbedding>(
      data, AllPairIndices(data), s2_, hp.lr_cross, hp.l2_cross, &rng_,
      hp.cross_backend);
  cat_pairs_ = EnumeratePairs(data.num_categorical());

  db_ = s2_;
  for (FactorizeFn fn : fns_) {
    db_ = std::max(db_, FactorizedWidth(fn, s1_));
  }
  scratch_.resize(db_);

  alpha_.name = "arch/alpha_multiop";
  alpha_.Resize({data.num_pairs(), num_candidates()});
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
  mlp_ = std::make_unique<Mlp>(
      "mlp", emb_.output_dim() + data.num_pairs() * db_, cfg, &rng_);
  mlp_->RegisterParams(&theta_opt_);
}

void MultiOpSearchModel::SampleProbs(std::vector<float>* probs) {
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  probs->resize(num_pairs * k);
  std::vector<float> noisy(k);
  for (size_t p = 0; p < num_pairs; ++p) {
    const float* a = alpha_.value.row(p);
    for (size_t c = 0; c < k; ++c) {
      noisy[c] = (a[c] + static_cast<float>(rng_.Gumbel())) / tau_;
    }
    Softmax(k, noisy.data(), probs->data() + p * k);
  }
}

void MultiOpSearchModel::ForwardWithProbs(const std::vector<float>& probs,
                                          ForwardContext* ctx) const {
  const Tensor& emb_out = ctx->emb_out;
  const size_t b = emb_out.rows();
  const size_t emb_cols = emb_out.cols();
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  std::vector<float> scratch(db_);
  Tensor& z = ctx->z;
  z.Resize({b, emb_cols + num_pairs * db_});
  for (size_t row = 0; row < b; ++row) {
    float* zr = z.row(row);
    std::memcpy(zr, emb_out.row(row), emb_cols * sizeof(float));
    const float* e = emb_out.row(row);
    const float* cr = ctx->cross_out.row(row);
    float* blocks = zr + emb_cols;
    std::memset(blocks, 0, num_pairs * db_ * sizeof(float));
    for (size_t p = 0; p < num_pairs; ++p) {
      const float* pr = probs.data() + p * k;
      float* block = blocks + p * db_;
      const float* mem = cr + p * s2_;
      for (size_t t = 0; t < s2_; ++t) block[t] += pr[0] * mem[t];
      const auto [i, j] = cat_pairs_[p];
      for (size_t f = 0; f < fns_.size(); ++f) {
        const size_t w = FactorizedWidth(fns_[f], s1_);
        FactorizedForward(fns_[f], s1_, e + i * s1_, e + j * s1_,
                          scratch.data());
        for (size_t t = 0; t < w; ++t) block[t] += pr[1 + f] * scratch[t];
      }
      // Last candidate (naive) contributes nothing.
    }
  }
  mlp_->Forward(z, &ctx->mlp_out, &ctx->mlp);
  ctx->logits.resize(b);
  for (size_t row = 0; row < b; ++row) {
    ctx->logits[row] = ctx->mlp_out.at(row, 0);
  }
}

void MultiOpSearchModel::PrepareBatch(const Batch& batch,
                                      PreparedBatch* prep) const {
  prep->BeginFill(batch);
  emb_.Prepare(batch, prep);
  cross_emb_->Prepare(batch, &prep->dedup, &prep->cross);
}

float MultiOpSearchModel::ForwardBackward(const PreparedBatch& prep) {
  SampleProbs(&probs_cache_);
  const size_t b = prep.size;
  emb_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  cross_emb_->ForwardPrepared(prep.cross, b, &ctx_.cross_out);
  ForwardWithProbs(probs_cache_, &ctx_);
  const size_t k = num_candidates();
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t row = 0; row < b; ++row) dmlp_out_.at(row, 0) = dlogits_[row];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);

  const size_t emb_cols = ctx_.emb_out.cols();
  const size_t num_pairs = data_.num_pairs();
  demb_.Resize({b, emb_cols});
  dcross_.Resize({b, ctx_.cross_out.cols()});
  dp_.assign(num_pairs * k, 0.0);
  for (size_t row = 0; row < b; ++row) {
    const float* dzr = dz_.row(row);
    std::memcpy(demb_.row(row), dzr, emb_cols * sizeof(float));
    const float* e = ctx_.emb_out.row(row);
    const float* cr = ctx_.cross_out.row(row);
    float* de = demb_.row(row);
    float* dcr = dcross_.row(row);
    const float* dblocks = dzr + emb_cols;
    for (size_t p = 0; p < num_pairs; ++p) {
      const float* pr = probs_cache_.data() + p * k;
      const float* dblock = dblocks + p * db_;
      const float* mem = cr + p * s2_;
      float* dmem = dcr + p * s2_;
      double dpm = 0.0;
      for (size_t t = 0; t < s2_; ++t) {
        dpm += static_cast<double>(dblock[t]) * mem[t];
        dmem[t] = pr[0] * dblock[t];
      }
      dp_[p * k + 0] += dpm;
      const auto [i, j] = cat_pairs_[p];
      const float* ei = e + i * s1_;
      const float* ej = e + j * s1_;
      for (size_t f = 0; f < fns_.size(); ++f) {
        const size_t w = FactorizedWidth(fns_[f], s1_);
        FactorizedForward(fns_[f], s1_, ei, ej, scratch_.data());
        double dpf = 0.0;
        for (size_t t = 0; t < w; ++t) {
          dpf += static_cast<double>(dblock[t]) * scratch_[t];
        }
        dp_[p * k + 1 + f] += dpf;
        FactorizedBackward(fns_[f], s1_, ei, ej, dblock, pr[1 + f],
                           de + i * s1_, de + j * s1_);
      }
    }
  }

  for (size_t p = 0; p < num_pairs; ++p) {
    const float* pr = probs_cache_.data() + p * k;
    const double* dpr = dp_.data() + p * k;
    double weighted = 0.0;
    for (size_t c = 0; c < k; ++c) weighted += pr[c] * dpr[c];
    float* da = alpha_.grad.row(p);
    for (size_t c = 0; c < k; ++c) {
      da[c] += static_cast<float>(pr[c] * (dpr[c] - weighted) / tau_);
    }
  }

  emb_.BackwardPrepared(demb_, prep, prep.cat);
  cross_emb_->BackwardPrepared(dcross_, prep.cross);
  return loss;
}

void MultiOpSearchModel::ApplyGrads() {
  emb_.StepPrepared();
  cross_emb_->StepPrepared();
  theta_opt_.Step();
  theta_opt_.ZeroGrad();
  arch_opt_.Step();
  arch_opt_.ZeroGrad();
}

void MultiOpSearchModel::Predict(const Batch& batch, std::vector<float>* probs,
                                 ForwardContext* ctx) const {
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  std::vector<float> p(num_pairs * k);
  std::vector<float> scaled(k);
  for (size_t q = 0; q < num_pairs; ++q) {
    const float* a = alpha_.value.row(q);
    for (size_t c = 0; c < k; ++c) scaled[c] = a[c] / tau_;
    Softmax(k, scaled.data(), p.data() + q * k);
  }
  emb_.Gather(batch, &ctx->emb_out);
  cross_emb_->Gather(batch, &ctx->cross_out);
  ForwardWithProbs(p, ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

size_t MultiOpSearchModel::ParamCount() const {
  return emb_.ParamCount() + cross_emb_->ParamCount() +
         mlp_->ParamCount() + alpha_.size();
}

void MultiOpSearchModel::CollectState(std::vector<Tensor*>* out) {
  emb_.CollectState(out);
  cross_emb_->CollectState(out);
  for (DenseParam* p : theta_opt_.params()) out->push_back(&p->value);
  out->push_back(&alpha_.value);
}

MultiOpArchitecture MultiOpSearchModel::ExtractArchitecture() const {
  const size_t k = num_candidates();
  MultiOpArchitecture out;
  out.methods.resize(data_.num_pairs());
  out.fns.assign(data_.num_pairs(), FactorizeFn::kHadamard);
  for (size_t p = 0; p < data_.num_pairs(); ++p) {
    const float* a = alpha_.value.row(p);
    size_t best = 0;
    for (size_t c = 1; c < k; ++c) {
      if (a[c] > a[best]) best = c;
    }
    if (best == 0) {
      out.methods[p] = InterMethod::kMemorize;
    } else if (best == k - 1) {
      out.methods[p] = InterMethod::kNaive;
    } else {
      out.methods[p] = InterMethod::kFactorize;
      out.fns[p] = fns_[best - 1];
    }
  }
  return out;
}

}  // namespace optinter
