#include "nn/quant_embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/dispatch.h"

namespace optinter {

uint16_t FloatToBf16(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  // A NaN stays a NaN: rounding could carry its payload into the sign bit
  // or truncate it to an infinity, so keep the top half and set the quiet
  // bit instead.
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round-to-nearest-even on the truncated 16 bits.
  const uint32_t rounding = ((bits >> 16) & 1u) + 0x7fffu;
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

namespace {

/// Affine int8 quantization of one row: q = round(x/scale) + zp with
/// q, zp ∈ [-128, 127] and scale = (max − min)/255. Dequant is
/// scale · (q − zp), so rounding costs ≤ scale/2 and the zero-point
/// rounding can clamp at most one step at the range edges (the 1.5·scale
/// bound documented on QuantizedTable::RowScale).
void QuantizeRowI8(const float* x, size_t dim, int8_t* q, float* scale,
                   int8_t* zp) {
  float lo = x[0], hi = x[0];
  for (size_t t = 1; t < dim; ++t) {
    lo = std::min(lo, x[t]);
    hi = std::max(hi, x[t]);
  }
  const float range = hi - lo;
  if (range == 0.0f) {
    // Constant row: represent it exactly with zp = 0.
    if (lo == 0.0f) {
      *scale = 1.0f;
      *zp = 0;
      std::fill(q, q + dim, static_cast<int8_t>(0));
    } else {
      *scale = std::fabs(lo) / 127.0f;
      *zp = 0;
      std::fill(q, q + dim, static_cast<int8_t>(lo > 0.0f ? 127 : -127));
    }
    return;
  }
  const float s = range / 255.0f;
  const int32_t zpoint =
      std::clamp(-128 - static_cast<int32_t>(std::lrintf(lo / s)), -128, 127);
  *scale = s;
  *zp = static_cast<int8_t>(zpoint);
  for (size_t t = 0; t < dim; ++t) {
    const int32_t v =
        static_cast<int32_t>(std::lrintf(x[t] / s)) + zpoint;
    q[t] = static_cast<int8_t>(std::clamp(v, -128, 127));
  }
}

}  // namespace

QuantizedTable::QuantizedTable(const EmbeddingTable& source, QuantMode mode)
    : vocab_(source.vocab_size()),
      dim_(source.dim()),
      mode_(mode),
      kind_(source.backend_kind()),
      qr_combine_(source.qr_combine()),
      qr_num_q_(source.qr_num_q()),
      qr_rem_(source.qr_rem()),
      backing_rows_(source.BackingRows()),
      remap_(source.remap()) {
  // Quantize the backing rows, not the logical vocab: a QR or tiered
  // source keeps its compression through the snapshot.
  const float* values = source.values().data();
  if (mode_ == QuantMode::kInt8) {
    q_.resize(backing_rows_ * dim_);
    scale_.resize(backing_rows_);
    zp_.resize(backing_rows_);
    for (size_t r = 0; r < backing_rows_; ++r) {
      QuantizeRowI8(values + r * dim_, dim_, q_.data() + r * dim_,
                    &scale_[r], &zp_[r]);
    }
  } else {
    b_.resize(backing_rows_ * dim_);
    for (size_t r = 0; r < backing_rows_; ++r) {
      const float* src = values + r * dim_;
      uint16_t* dst = b_.data() + r * dim_;
      for (size_t t = 0; t < dim_; ++t) dst[t] = FloatToBf16(src[t]);
    }
  }
}

void QuantizedTable::DequantBackingRow(size_t row, float* dst) const {
  const KernelTable& table = ActiveKernels();
  if (mode_ == QuantMode::kInt8) {
    table.dequant_row_i8(q_.data() + row * dim_, scale_[row],
                         static_cast<int32_t>(zp_[row]), dim_, dst);
  } else {
    table.dequant_row_bf16(b_.data() + row * dim_, dim_, dst);
  }
}

void QuantizedTable::DequantRow(int32_t id, float* dst) const {
  CHECK_GE(id, 0);
  CHECK_LT(static_cast<size_t>(id), vocab_);
  if (kind_ != EmbeddingBackendKind::kQR) {
    DequantBackingRow(static_cast<size_t>(PrimaryRowOf(id)), dst);
    return;
  }
  // QR: dequantize both factor rows and combine in the same order as
  // EmbeddingTable::CopyRow. Scratch is thread-local so concurrent
  // serving reads never share it.
  static thread_local std::vector<float> scratch;
  if (scratch.size() < dim_) scratch.resize(dim_);
  DequantBackingRow(static_cast<size_t>(PrimaryRowOf(id)), dst);
  DequantBackingRow(qr_num_q_ + static_cast<size_t>(id) % qr_rem_,
                    scratch.data());
  if (qr_combine_ == QrCombine::kSum) {
    for (size_t t = 0; t < dim_; ++t) dst[t] += scratch[t];
  } else {
    for (size_t t = 0; t < dim_; ++t) dst[t] *= scratch[t];
  }
}

}  // namespace optinter
