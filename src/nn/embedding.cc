#include "nn/embedding.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "data/hash_encoder.h"
#include "nn/init.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace optinter {

namespace {

constexpr size_t kL = simd::kLanes;

// One Adam row update over dim slots, vectorized. Rows are updated serially
// (each touched backing row exactly once), so there is no chunk-boundary
// concern.
inline void AdamUpdateRow(float* w, float* m, float* v, const float* g,
                          size_t dim, float lr, float l2, float b1, float b2,
                          float bc1, float bc2, float eps) {
  const simd::VecF l2_v = simd::Set1(l2);
  const simd::VecF b1_v = simd::Set1(b1);
  const simd::VecF b2_v = simd::Set1(b2);
  const simd::VecF omb1_v = simd::Set1(1.0f - b1);
  const simd::VecF omb2_v = simd::Set1(1.0f - b2);
  const simd::VecF bc1_v = simd::Set1(bc1);
  const simd::VecF bc2_v = simd::Set1(bc2);
  const simd::VecF lr_v = simd::Set1(lr);
  const simd::VecF eps_v = simd::Set1(eps);
  size_t i = 0;
  for (; i + kL <= dim; i += kL) {
    const simd::VecF wv = simd::LoadU(w + i);
    const simd::VecF gi = simd::MulAdd(l2_v, wv, simd::LoadU(g + i));
    const simd::VecF mv =
        simd::MulAdd(b1_v, simd::LoadU(m + i), simd::Mul(omb1_v, gi));
    const simd::VecF vv = simd::MulAdd(b2_v, simd::LoadU(v + i),
                                       simd::Mul(simd::Mul(omb2_v, gi), gi));
    simd::StoreU(m + i, mv);
    simd::StoreU(v + i, vv);
    const simd::VecF denom =
        simd::Add(simd::Sqrt(simd::Div(vv, bc2_v)), eps_v);
    const simd::VecF upd =
        simd::Div(simd::Mul(lr_v, simd::Div(mv, bc1_v)), denom);
    simd::StoreU(w + i, simd::Sub(wv, upd));
  }
  for (; i < dim; ++i) {
    const float gi = simd::MulAddScalar(l2, w[i], g[i]);
    m[i] = simd::MulAddScalar(b1, m[i], (1.0f - b1) * gi);
    v[i] = simd::MulAddScalar(b2, v[i], ((1.0f - b2) * gi) * gi);
    w[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
  }
}

// The scatter's row bodies. Each element is one Add or one MulAdd, so a
// lane and the scalar tail round alike (simd.h): a reference that sums in
// scalar `+=` / simd::MulAddScalar reproduces them bit for bit.

// dst += a (plain accumulate).
inline void AddRow(float* dst, const float* a, size_t dim) {
  size_t i = 0;
  for (; i + kL <= dim; i += kL) {
    simd::StoreU(dst + i, simd::Add(simd::LoadU(dst + i), simd::LoadU(a + i)));
  }
  for (; i < dim; ++i) dst[i] += a[i];
}

// dst += a ⊙ b — the QR-mul product rule.
inline void AddProductRow(float* dst, const float* a, const float* b,
                          size_t dim) {
  size_t i = 0;
  for (; i + kL <= dim; i += kL) {
    simd::StoreU(dst + i, simd::MulAdd(simd::LoadU(a + i), simd::LoadU(b + i),
                                       simd::LoadU(dst + i)));
  }
  for (; i < dim; ++i) dst[i] = simd::MulAddScalar(a[i], b[i], dst[i]);
}

// dst += a * scale — the continuous-feature gradient.
inline void AddScaledRow(float* dst, const float* a, float scale,
                         size_t dim) {
  const simd::VecF s = simd::Set1(scale);
  size_t i = 0;
  for (; i + kL <= dim; i += kL) {
    simd::StoreU(dst + i,
                 simd::MulAdd(simd::LoadU(a + i), s, simd::LoadU(dst + i)));
  }
  for (; i < dim; ++i) dst[i] = simd::MulAddScalar(a[i], scale, dst[i]);
}

// Rows touched per sparse step; handle cached once (registry never
// invalidates it).
obs::Counter* RowsUpdatedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("emb.rows_updated");
  return c;
}

size_t CeilSqrt(size_t v) {
  size_t r = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(v))));
  while (r > 1 && (r - 1) * (r - 1) >= v) --r;
  while (r * r < v) ++r;
  return r;
}

}  // namespace

EmbeddingBackendConfig ResolveBackendForVocab(
    const EmbeddingBackendConfig& policy, size_t vocab_size) {
  EmbeddingBackendConfig cfg = policy;
  if (cfg.kind == EmbeddingBackendKind::kDense) {
    // CI drop-in-parity hook: flip dense-by-default embedding-layer
    // tables to a compressed backend without touching any call site.
    static const char* env = std::getenv("OPTINTER_EMBED_BACKEND");
    if (env != nullptr && env[0] != '\0') {
      const std::string v(env);
      if (v == "qr" || v == "qr_sum") {
        cfg.kind = EmbeddingBackendKind::kQR;
        cfg.qr_combine = QrCombine::kSum;
      } else if (v == "qr_mul") {
        cfg.kind = EmbeddingBackendKind::kQR;
        cfg.qr_combine = QrCombine::kMul;
      } else if (v == "tiered") {
        cfg.kind = EmbeddingBackendKind::kTiered;
      } else {
        CHECK(false) << "OPTINTER_EMBED_BACKEND='" << v
                     << "' is not one of: qr, qr_sum, qr_mul, tiered";
      }
    }
  }
  if (vocab_size < cfg.min_vocab) {
    cfg.kind = EmbeddingBackendKind::kDense;
  }
  return cfg;
}

EmbeddingTable::EmbeddingTable(std::string name, size_t vocab_size,
                               size_t dim, float lr_in, float l2_in,
                               EmbeddingBackendConfig config)
    : lr(lr_in), l2(l2_in), name_(std::move(name)), vocab_size_(vocab_size),
      dim_(dim), kind_(config.kind), qr_combine_(config.qr_combine) {
  CHECK_GT(vocab_size_, 0u);
  CHECK_GT(dim_, 0u);
  switch (kind_) {
    case EmbeddingBackendKind::kDense:
      backing_rows_ = vocab_size_;
      break;
    case EmbeddingBackendKind::kQR: {
      qr_rem_ = config.qr_rem != 0 ? config.qr_rem : CeilSqrt(vocab_size_);
      if (qr_rem_ > vocab_size_) qr_rem_ = vocab_size_;
      CHECK_GT(qr_rem_, 0u);
      qr_num_q_ = (vocab_size_ + qr_rem_ - 1) / qr_rem_;
      backing_rows_ = qr_num_q_ + qr_rem_;
      break;
    }
    case EmbeddingBackendKind::kTiered: {
      const size_t want_hot =
          config.tier_hot != 0 ? config.tier_hot
                               : std::max<size_t>(1, vocab_size_ / 16);
      tier_buckets_ = config.tier_buckets != 0
                          ? config.tier_buckets
                          : std::max<size_t>(1, vocab_size_ / 16);
      auto remap = std::make_shared<std::vector<int32_t>>(vocab_size_, -1);
      int32_t next_hot = 0;
      auto claim = [&](int32_t id) {
        if (id < 0 || static_cast<size_t>(id) >= vocab_size_) return;
        int32_t& slot = (*remap)[static_cast<size_t>(id)];
        if (slot >= 0) return;  // duplicate hot id
        slot = next_hot++;
      };
      if (!config.tier_hot_ids.empty()) {
        for (int32_t id : config.tier_hot_ids) {
          if (static_cast<size_t>(next_hot) >= want_hot) break;
          claim(id);
        }
      } else {
        // Fallback hot set {1..K}: the hashed encoder assigns ids 1..K to
        // the K most frequent values, so this is exact for hash-encoded
        // fields and a frequency-agnostic prior otherwise.
        for (size_t id = 1;
             id < vocab_size_ && static_cast<size_t>(next_hot) < want_hot;
             ++id) {
          claim(static_cast<int32_t>(id));
        }
      }
      tier_hot_rows_ = static_cast<size_t>(next_hot);
      for (size_t id = 0; id < vocab_size_; ++id) {
        int32_t& slot = (*remap)[id];
        if (slot >= 0) continue;
        slot = static_cast<int32_t>(
            tier_hot_rows_ +
            ShardStableHash64(id, config.tier_salt) % tier_buckets_);
      }
      remap_ = std::move(remap);
      backing_rows_ = tier_hot_rows_ + tier_buckets_;
      break;
    }
  }
  value_.Resize({backing_rows_, dim_});
  m_.Resize({backing_rows_, dim_});
  v_.Resize({backing_rows_, dim_});
}

void EmbeddingTable::Init(Rng* rng, double stddev) {
  // QR-mul rows are the element-wise product of two factors, so each
  // factor takes std sqrt(stddev) to keep the combined row's magnitude
  // near the conventional scale (E|q·r| ≈ stddev for q,r ~ N(0, √stddev)).
  const double s = (kind_ == EmbeddingBackendKind::kQR &&
                    qr_combine_ == QrCombine::kMul)
                       ? std::sqrt(stddev)
                       : stddev;
  NormalInit(&value_, 0.0, s, rng);
}

std::string EmbeddingTable::BackendDesc() const {
  switch (kind_) {
    case EmbeddingBackendKind::kDense:
      return "dense";
    case EmbeddingBackendKind::kQR:
      return StrFormat("%s(q=%zu,r=%zu)",
                       qr_combine_ == QrCombine::kMul ? "qr_mul" : "qr_sum",
                       qr_num_q_, qr_rem_);
    case EmbeddingBackendKind::kTiered:
      return StrFormat("tiered(hot=%zu,buckets=%zu)", tier_hot_rows_,
                       tier_buckets_);
  }
  return "?";
}

void EmbeddingTable::ComposeQrRow(int32_t id, float* dst) const {
  const float* q = BackingRowPtr(PrimaryRowOf(id));
  const float* r = BackingRowPtr(SecondaryRowOf(id));
  size_t i = 0;
  if (qr_combine_ == QrCombine::kMul) {
    for (; i + kL <= dim_; i += kL) {
      simd::StoreU(dst + i, simd::Mul(simd::LoadU(q + i), simd::LoadU(r + i)));
    }
    for (; i < dim_; ++i) dst[i] = q[i] * r[i];
  } else {
    for (; i + kL <= dim_; i += kL) {
      simd::StoreU(dst + i, simd::Add(simd::LoadU(q + i), simd::LoadU(r + i)));
    }
    for (; i < dim_; ++i) dst[i] = q[i] + r[i];
  }
}

void EmbeddingTable::CopyRow(int32_t id, float* dst) const {
  CopyRows(&id, 1, dst, dim_);
}

void EmbeddingTable::CopyRows(const int32_t* ids, size_t n, float* dst,
                              size_t dst_stride) const {
  switch (kind_) {
    case EmbeddingBackendKind::kDense:
      for (size_t r = 0; r < n; ++r, dst += dst_stride) {
        CheckId(ids[r], "CopyRow");
        CopyFloats(dst, BackingRowPtr(ids[r]), dim_);
      }
      return;
    case EmbeddingBackendKind::kTiered:
      for (size_t r = 0; r < n; ++r, dst += dst_stride) {
        CheckId(ids[r], "CopyRow");
        CopyFloats(dst, BackingRowPtr((*remap_)[static_cast<size_t>(ids[r])]),
                   dim_);
      }
      return;
    case EmbeddingBackendKind::kQR:
      for (size_t r = 0; r < n; ++r, dst += dst_stride) {
        CheckId(ids[r], "CopyRow");
        ComposeQrRow(ids[r], dst);
      }
      return;
  }
}

void EmbeddingTable::AccumulatePreparedGradScaled(size_t slot,
                                                  const float* grad,
                                                  float scale) {
  AddScaledRow(prep_grads_.data() + slot * dim_, grad, scale, dim_);
}

void EmbeddingTable::AccumulatePreparedGradPrimary(size_t slot, int32_t id,
                                                   const float* grad) {
  float* dst = prep_grads_.data() + slot * dim_;
  if (kind_ == EmbeddingBackendKind::kQR &&
      qr_combine_ == QrCombine::kMul) {
    AddProductRow(dst, grad, BackingRowPtr(SecondaryRowOf(id)), dim_);
  } else {
    AddRow(dst, grad, dim_);
  }
}

void EmbeddingTable::AccumulatePreparedGradSecondary(size_t slot, int32_t id,
                                                     const float* grad) {
  float* dst = prep_grads_.data() + slot * dim_;
  if (qr_combine_ == QrCombine::kMul) {
    AddProductRow(dst, grad, BackingRowPtr(PrimaryRowOf(id)), dim_);
  } else {
    AddRow(dst, grad, dim_);
  }
}

void EmbeddingTable::SparseAdamStepPrepared(const AdamConfig& config) {
  OPTINTER_TRACE_SPAN("sparse_adam_step");
  RowsUpdatedCounter()->Add(prep_count_);
  ++step_;
  const float b1 = config.beta1;
  const float b2 = config.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(step_));
  for (size_t t = 0; t < prep_count_; ++t) {
    const int32_t row = prep_rows_[t];
    const float* g_row = prep_grads_.data() + t * dim_;
    float* w = value_.data() + static_cast<size_t>(row) * dim_;
    float* m = m_.data() + static_cast<size_t>(row) * dim_;
    float* v = v_.data() + static_cast<size_t>(row) * dim_;
    AdamUpdateRow(w, m, v, g_row, dim_, lr, l2, b1, b2, bc1, bc2, config.eps);
  }
  ClearPreparedGrads();
}

}  // namespace optinter
