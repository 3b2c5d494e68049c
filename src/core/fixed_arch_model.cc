#include "core/fixed_arch_model.h"

#include <cstring>

#include "common/thread_pool.h"
#include "nn/layers.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace optinter {

FixedArchModel::FixedArchModel(const EncodedDataset& data,
                               const Architecture& arch,
                               const HyperParams& hp, std::string name,
                               std::vector<size_t> memorized_triples,
                               std::vector<FactorizeFn> pair_fns)
    : name_(std::move(name)),
      arch_(arch),
      s1_(hp.embed_dim),
      s2_(hp.cross_embed_dim),
      pair_fns_(std::move(pair_fns)),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend) {
  CHECK_EQ(arch_.size(), data.num_pairs());
  if (pair_fns_.empty()) {
    pair_fns_.assign(arch_.size(), hp.factorize_fn);
  }
  CHECK_EQ(pair_fns_.size(), arch_.size());
  cat_pairs_ = EnumeratePairs(data.num_categorical());

  // Lay out interaction blocks and collect memorized pairs.
  std::vector<size_t> mem_pairs;
  block_offset_.assign(arch_.size(), kNone);
  mem_slot_.assign(arch_.size(), kNone);
  size_t offset = 0;
  for (size_t p = 0; p < arch_.size(); ++p) {
    switch (arch_[p]) {
      case InterMethod::kMemorize:
        block_offset_[p] = offset;
        mem_slot_[p] = mem_pairs.size();
        mem_pairs.push_back(p);
        offset += s2_;
        break;
      case InterMethod::kFactorize:
        block_offset_[p] = offset;
        offset += FactorizedWidth(pair_fns_[p], s1_);
        break;
      case InterMethod::kNaive:
        break;
    }
  }
  inter_dim_ = offset;
  if (!mem_pairs.empty()) {
    cross_emb_ = std::make_unique<CrossEmbedding>(
        data, CrossKind::kPair, mem_pairs, s2_, hp.lr_cross, hp.l2_cross,
        &rng_, hp.cross_backend);
  }
  if (!memorized_triples.empty()) {
    triple_emb_ = std::make_unique<CrossEmbedding>(
        data, CrossKind::kTriple, std::move(memorized_triples), s2_,
        hp.lr_cross, hp.l2_cross, &rng_, hp.cross_backend);
    inter_dim_ += triple_emb_->output_dim();
  }

  MlpConfig cfg;
  cfg.hidden = hp.mlp_hidden;
  cfg.out_dim = 1;
  cfg.layer_norm = hp.layer_norm;
  cfg.lr = hp.lr_orig;
  cfg.l2 = hp.l2_orig;
  mlp_ = std::make_unique<Mlp>("mlp", emb_.output_dim() + inter_dim_, cfg,
                               &rng_);
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

void FixedArchModel::AssembleForward(size_t b, ForwardContext* ctx) const {
  const size_t emb_cols = ctx->emb_out.cols();
  Tensor& z = ctx->z;
  // Every column is written below: the embedding copy, then one block per
  // memorized/factorized pair (they tile inter_dim_), then the triples.
  z.ResizeForOverwrite({b, emb_cols + inter_dim_});
  auto assemble = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      float* zr = z.row(k);
      std::memcpy(zr, ctx->emb_out.row(k), emb_cols * sizeof(float));
      const float* e = ctx->emb_out.row(k);
      for (size_t p = 0; p < arch_.size(); ++p) {
        switch (arch_[p]) {
          case InterMethod::kMemorize:
            std::memcpy(zr + emb_cols + block_offset_[p],
                        ctx->cross_out.row(k) + mem_slot_[p] * s2_,
                        s2_ * sizeof(float));
            break;
          case InterMethod::kFactorize: {
            const auto [i, j] = cat_pairs_[p];
            FactorizedForward(pair_fns_[p], s1_, e + i * s1_, e + j * s1_,
                              zr + emb_cols + block_offset_[p]);
            break;
          }
          case InterMethod::kNaive:
            break;
        }
      }
      if (triple_emb_) {
        std::memcpy(zr + emb_cols + inter_dim_ - triple_emb_->output_dim(),
                    ctx->triple_out.row(k),
                    triple_emb_->output_dim() * sizeof(float));
      }
    }
  };
  // Each row assembles into its own z row, so fanning across the pool is
  // bit-identical to the serial loop.
  if (b * (emb_cols + inter_dim_) >= (1u << 15)) {
    ParallelForChunks(0, b, assemble, /*min_chunk=*/32);
  } else {
    assemble(0, b);
  }
  MlpForward(z, &ctx->mlp_out, &ctx->mlp);
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
  AssembleForward(prep.size, &ctx_);

  const size_t b = prep.size;
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(),
                                       prep.labels.data(), b,
                                       dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t k = 0; k < b; ++k) dmlp_out_.at(k, 0) = dlogits_[k];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);

  const size_t emb_cols = ctx_.emb_out.cols();
  demb_.Resize({b, emb_cols});
  if (cross_emb_) dcross_.Resize({b, ctx_.cross_out.cols()});
  auto bwd_rows = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const float* dzr = dz_.row(k);
      std::memcpy(demb_.row(k), dzr, emb_cols * sizeof(float));
      const float* e = ctx_.emb_out.row(k);
      float* de = demb_.row(k);
      for (size_t p = 0; p < arch_.size(); ++p) {
        switch (arch_[p]) {
          case InterMethod::kMemorize:
            std::memcpy(dcross_.row(k) + mem_slot_[p] * s2_,
                        dzr + emb_cols + block_offset_[p],
                        s2_ * sizeof(float));
            break;
          case InterMethod::kFactorize: {
            const auto [i, j] = cat_pairs_[p];
            const float* dblock = dzr + emb_cols + block_offset_[p];
            FactorizedBackward(pair_fns_[p], s1_, e + i * s1_, e + j * s1_,
                               dblock, 1.0f, de + i * s1_, de + j * s1_);
            break;
          }
          case InterMethod::kNaive:
            break;
        }
      }
    }
  };
  {
    OPTINTER_TRACE_SPAN("interaction_bwd");
    // Each row writes its own demb/dcross rows → bit-identical to the
    // serial loop under any chunking.
    if (b * (emb_cols + inter_dim_) >= (1u << 15)) {
      ParallelForChunks(0, b, bwd_rows, /*min_chunk=*/32);
    } else {
      bwd_rows(0, b);
    }
  }
  emb_.BackwardPrepared(demb_, prep, prep.cat);
  if (cross_emb_) cross_emb_->BackwardPrepared(dcross_, prep.cross);
  if (triple_emb_) {
    dtriple_.Resize({b, triple_emb_->output_dim()});
    const size_t triple_off =
        emb_cols + inter_dim_ - triple_emb_->output_dim();
    for (size_t k = 0; k < b; ++k) {
      std::memcpy(dtriple_.row(k), dz_.row(k) + triple_off,
                  triple_emb_->output_dim() * sizeof(float));
    }
    triple_emb_->BackwardPrepared(dtriple_, prep.triple);
  }
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
  if (batch.size == 1 && fuse_single_row_) {
    PredictSingleRow(*batch.data, batch.rows[0], probs, ctx);
    return;
  }
  // Gather touches no mutable layer state, so concurrent calls with
  // distinct contexts share only immutable parameters.
  emb_.Gather(batch, &ctx->emb_out);
  if (cross_emb_) cross_emb_->Gather(batch, &ctx->cross_out);
  if (triple_emb_) triple_emb_->Gather(batch, &ctx->triple_out);
  AssembleForward(batch.size, ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void FixedArchModel::PredictSingleRow(const EncodedDataset& data, size_t row,
                                      std::vector<float>* probs,
                                      ForwardContext* ctx) const {
  // Batch-1 serving fast path: gather every embedding block straight into
  // the z row and compute interactions in place — no emb_out / cross_out /
  // triple_out intermediates. Each block holds bitwise the same values the
  // generic path would memcpy there, and the interaction kernels run on
  // identical inputs in identical order, so the result is bit-identical to
  // the generic path at batch size 1.
  const size_t emb_cols = emb_.output_dim();
  Tensor& z = ctx->z;
  z.Resize({1, emb_cols + inter_dim_});
  float* zr = z.row(0);
  {
    // Gathers + in-place interactions, attributed apart from the MLP.
    OPTINTER_TRACE_SPAN("gather_assemble");
    emb_.GatherRow(data, row, zr);
    for (size_t p = 0; p < arch_.size(); ++p) {
      switch (arch_[p]) {
        case InterMethod::kMemorize:
          cross_emb_->CopyRow(data, row, mem_slot_[p],
                              zr + emb_cols + block_offset_[p]);
          break;
        case InterMethod::kFactorize: {
          const auto [i, j] = cat_pairs_[p];
          FactorizedForward(pair_fns_[p], s1_, zr + i * s1_, zr + j * s1_,
                            zr + emb_cols + block_offset_[p]);
          break;
        }
        case InterMethod::kNaive:
          break;
      }
    }
    if (triple_emb_) {
      triple_emb_->GatherRow(
          data, row, zr + emb_cols + inter_dim_ - triple_emb_->output_dim());
    }
  }
  MlpForward(z, &ctx->mlp_out, &ctx->mlp);
  ctx->logits.resize(1);
  ctx->logits[0] = ctx->mlp_out.at(0, 0);
  probs->resize(1);
  SigmoidForward(ctx->logits.data(), 1, probs->data());
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
