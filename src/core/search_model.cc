#include "core/search_model.h"

#include <cstring>
#include <numeric>

#include "common/thread_pool.h"
#include "core/interaction_layout.h"
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
      fns_(std::move(fns)),
      s1_(hp.embed_dim),
      s2_(hp.cross_embed_dim),
      tau_(hp.gumbel_temp_start),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend) {
  // Metadata-only datasets (vocab sizes without row payload) are fine.
  CHECK(!data.cross_vocab_sizes.empty()) << "search requires cross features";
  if (fns_.empty()) fns_.push_back(hp.factorize_fn);
  db_ = s2_;
  for (FactorizeFn fn : fns_) {
    fn_widths_.push_back(FactorizedWidth(fn, s1_));
    db_ = std::max(db_, fn_widths_.back());
  }
  cross_emb_ = std::make_unique<CrossEmbedding>(
      data, CrossKind::kPair, AllPairIndices(data), s2_, hp.lr_cross,
      hp.l2_cross, &rng_, hp.cross_backend);
  cat_pairs_ = EnumeratePairs(data.num_categorical());

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
  mlp_ = std::make_unique<Mlp>(
      "mlp", emb_.output_dim() + data.num_pairs() * db_, cfg, &rng_);
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

void SearchModel::AssembleForward(size_t b, const std::vector<float>& probs,
                                  ForwardContext* ctx) const {
  const size_t emb_cols = ctx->emb_out.cols();
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  Tensor& z = ctx->z;
  z.Resize({b, emb_cols + num_pairs * db_});
  auto assemble = [&](size_t lo, size_t hi) {
    // Thread-local factorization scratch: per-thread so concurrent chunks
    // (and concurrent Predict calls) never race, and capacity survives
    // across steps so steady-state steps don't allocate.
    static thread_local std::vector<float> fact;
    fact.resize(db_);
    for (size_t r = lo; r < hi; ++r) {
      float* zr = z.row(r);
      std::memcpy(zr, ctx->emb_out.row(r), emb_cols * sizeof(float));
      const float* e = ctx->emb_out.row(r);
      const float* cr = ctx->cross_out.row(r);
      float* blocks = zr + emb_cols;
      std::memset(blocks, 0, num_pairs * db_ * sizeof(float));
      for (size_t p = 0; p < num_pairs; ++p) {
        // Probabilities are read into locals: `block` may alias them.
        const float* pr = probs.data() + p * k;
        const float pm = pr[0];
        float* block = blocks + p * db_;
        const float* mem = cr + p * s2_;
        for (size_t t = 0; t < s2_; ++t) block[t] += pm * mem[t];
        const auto [i, j] = cat_pairs_[p];
        for (size_t f = 0; f < fns_.size(); ++f) {
          FactorizedForward(fns_[f], s1_, e + i * s1_, e + j * s1_,
                            fact.data());
          const float pf = pr[1 + f];
          for (size_t t = 0; t < fn_widths_[f]; ++t) {
            block[t] += pf * fact[t];
          }
        }
        // Naïve candidate is the zero vector: contributes nothing.
      }
    }
  };
  {
    OPTINTER_TRACE_SPAN("z_assemble");
    // Rows write disjoint z rows → bit-identical to the serial loop.
    if (b * (emb_cols + num_pairs * db_) >= kParallelAssembleFloats) {
      ParallelForChunks(0, b, assemble, /*min_chunk=*/32);
    } else {
      assemble(0, b);
    }
  }
  mlp_->Forward(z, &ctx->mlp_out, &ctx->mlp);
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
  AssembleForward(b, probs_cache_, &ctx_);
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t r = 0; r < b; ++r) dmlp_out_.at(r, 0) = dlogits_[r];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);

  const size_t emb_cols = ctx_.emb_out.cols();
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  demb_.Resize({b, emb_cols});
  dcross_.Resize({b, ctx_.cross_out.cols()});
  // d(loss)/d(candidate probability), accumulated over the batch.
  dp_.assign(num_pairs * k, 0.0);
  // Per-row demb/dcross writes are disjoint; dp is a reduction over rows
  // accumulated into `dp_acc` (the shared vector on the serial path,
  // per-chunk partials on the parallel one).
  auto body = [&](size_t lo, size_t hi, double* dp_acc) {
    static thread_local std::vector<float> fact;
    fact.resize(db_);
    for (size_t r = lo; r < hi; ++r) {
      const float* dzr = dz_.row(r);
      std::memcpy(demb_.row(r), dzr, emb_cols * sizeof(float));
      const float* e = ctx_.emb_out.row(r);
      const float* cr = ctx_.cross_out.row(r);
      float* de = demb_.row(r);
      float* dcr = dcross_.row(r);
      const float* dblocks = dzr + emb_cols;
      for (size_t p = 0; p < num_pairs; ++p) {
        const float* pr = probs_cache_.data() + p * k;
        const float pm = pr[0];  // a local: `dmem` may alias pr
        double* dpr = dp_acc + p * k;
        const float* dblock = dblocks + p * db_;
        const float* mem = cr + p * s2_;
        float* dmem = dcr + p * s2_;
        double dpm = 0.0;
        for (size_t t = 0; t < s2_; ++t) {
          dpm += static_cast<double>(dblock[t]) * mem[t];
          dmem[t] = pm * dblock[t];
        }
        dpr[0] += dpm;
        const auto [i, j] = cat_pairs_[p];
        const float* ei = e + i * s1_;
        const float* ej = e + j * s1_;
        for (size_t f = 0; f < fns_.size(); ++f) {
          FactorizedForward(fns_[f], s1_, ei, ej, fact.data());
          double dpf = 0.0;
          for (size_t t = 0; t < fn_widths_[f]; ++t) {
            dpf += static_cast<double>(dblock[t]) * fact[t];
          }
          FactorizedBackward(fns_[f], s1_, ei, ej, dblock, pr[1 + f],
                             de + i * s1_, de + j * s1_);
          dpr[1 + f] += dpf;
        }
        // dp for naïve stays 0: its candidate embedding is the zero vector.
      }
    }
  };
  {
    OPTINTER_TRACE_SPAN("interaction_bwd");
    const FixedChunks grid = MakeFixedChunks(b, /*min_chunk=*/32);
    if (b * (emb_cols + num_pairs * db_) >= kParallelAssembleFloats && grid.count > 1) {
      // Per-chunk dp partials merged in chunk order: the fixed grid keeps
      // the summation tree independent of the thread count.
      const size_t stride = num_pairs * k;
      dp_partials_.assign(grid.count * stride, 0.0);
      ParallelForEachChunk(grid, [&](size_t c) {
        body(grid.lo(c), grid.hi(c), dp_partials_.data() + c * stride);
      });
      for (size_t c = 0; c < grid.count; ++c) {
        const double* part = dp_partials_.data() + c * stride;
        for (size_t idx = 0; idx < stride; ++idx) dp_[idx] += part[idx];
      }
    } else {
      body(0, b, dp_.data());
    }
  }

  // Softmax backward into the architecture logits:
  //   da_k = (1/τ) · p_k · (dp_k − Σ_l p_l · dp_l).
  {
    OPTINTER_TRACE_SPAN("alpha_bwd");
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
  }

  emb_.BackwardPrepared(demb_, prep, prep.cat);
  cross_emb_->BackwardPrepared(dcross_, prep.cross);
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
  const size_t num_pairs = data_.num_pairs();
  const size_t k = num_candidates();
  std::vector<float> p(num_pairs * k);
  for (size_t q = 0; q < num_pairs; ++q) ExpectedProbs(q, p.data() + q * k);
  // Gather touches no mutable layer state, so concurrent calls with
  // distinct contexts share only immutable parameters.
  emb_.Gather(batch, &ctx->emb_out);
  cross_emb_->Gather(batch, &ctx->cross_out);
  AssembleForward(batch.size, p, ctx);
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
