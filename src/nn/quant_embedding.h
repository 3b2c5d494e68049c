// Read-only quantized views of EmbeddingTable for the serving path.
//
// A QuantizedTable is built once from a trained (fp32) EmbeddingTable —
// the one-shot QuantizeSnapshot conversion (serve/snapshot.h) — and then
// only ever read. Two storage formats:
//
//  * int8: per-row affine quantization q = round(x/scale) + zp with an
//    int8 zero point, so a row costs dim + 5 bytes (dim int8 values,
//    one float scale, one int8 zero point) against 4·dim fp32 — a 3.05×
//    reduction at dim 16. Row-wise scales track each embedding row's own
//    range, which is what keeps the AUC hit negligible: CTR embedding
//    rows differ in magnitude by orders of magnitude across ids.
//  * bf16: the top 16 bits of the fp32 pattern, round-to-nearest-even.
//    2× reduction, essentially lossless for CTR embeddings (8-bit
//    mantissa ≈ the noise floor of Adam-trained weights).
//
// Quantization operates on the source table's BACKING rows, so the
// compression composes with the storage backends of nn/embedding.h: a QR
// or tiered table quantizes its num_q + r (or hot + bucket) rows, not the
// full logical vocab, and the logical→backing mapping is replicated here
// (the tiered remap is shared by pointer, never copied). QR logical rows
// are composed at dequant time from the two dequantized factor rows, in
// the same combine order as EmbeddingTable::CopyRow.
//
// Dequantization goes through the runtime dispatch table
// (KernelTable::dequant_row_i8 / dequant_row_bf16). Both kernels are
// bitwise backend-invariant — int8 dequant is an integer subtract plus
// ONE fp32 multiply per element, bf16 dequant is a pure bit shift — so a
// quantized model's predictions do not depend on the selected backend.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/embedding.h"
#include "tensor/aligned.h"

namespace optinter {

/// Serving-time numeric format for a quantized snapshot.
enum class QuantMode : uint8_t { kInt8, kBf16 };

inline const char* QuantModeName(QuantMode mode) {
  return mode == QuantMode::kInt8 ? "int8" : "bf16";
}

/// Immutable quantized [vocab × dim] logical table stored as quantized
/// backing rows; all methods are const and concurrent reads are safe (the
/// serving hot-swap publishes these inside an immutable snapshot).
class QuantizedTable {
 public:
  QuantizedTable(const EmbeddingTable& source, QuantMode mode);

  /// Dequantizes logical row `id` into dst[0:dim] via the active kernel
  /// table, composing QR factor rows exactly as EmbeddingTable::CopyRow.
  void DequantRow(int32_t id, float* dst) const;

  size_t vocab_size() const { return vocab_; }
  size_t dim() const { return dim_; }
  QuantMode mode() const { return mode_; }
  EmbeddingBackendKind backend_kind() const { return kind_; }
  /// Rows actually stored (== vocab_size only for dense sources).
  size_t backing_rows() const { return backing_rows_; }

  /// Storage bytes per BACKING row, counting per-row metadata
  /// (scale/zero point).
  size_t RowBytes() const {
    return mode_ == QuantMode::kInt8 ? dim_ + sizeof(float) + 1 : 2 * dim_;
  }

  /// Total storage: quantized backing rows plus the replicated
  /// logical→backing mapping (tiered remap bytes; QR needs none).
  size_t StorageBytes() const {
    return backing_rows_ * RowBytes() +
           (remap_ ? remap_->size() * sizeof(int32_t) : 0);
  }

  /// int8 quantization step of `id`'s primary backing row (kBf16: 0).
  /// For dense and tiered tables the round-trip error of any element of
  /// the row is bounded by 1.5 · RowScale(id): half a step from rounding
  /// plus at most one step lost to edge clamping. QR rows are composed
  /// from two quantized factors, so the sum-combine bound is
  /// 1.5 · (RowScale(id) + SecondaryRowScale(id)).
  float RowScale(int32_t id) const {
    if (mode_ != QuantMode::kInt8) return 0.0f;
    return scale_[static_cast<size_t>(PrimaryRowOf(id))];
  }

  /// int8 step of `id`'s QR remainder row (0 for non-QR or kBf16).
  float SecondaryRowScale(int32_t id) const {
    if (mode_ != QuantMode::kInt8 || kind_ != EmbeddingBackendKind::kQR) {
      return 0.0f;
    }
    return scale_[qr_num_q_ + static_cast<size_t>(id) % qr_rem_];
  }

 private:
  int32_t PrimaryRowOf(int32_t id) const {
    switch (kind_) {
      case EmbeddingBackendKind::kDense:
        return id;
      case EmbeddingBackendKind::kTiered:
        return (*remap_)[static_cast<size_t>(id)];
      case EmbeddingBackendKind::kQR:
        return static_cast<int32_t>(static_cast<size_t>(id) / qr_rem_);
    }
    return id;
  }

  /// Dequantizes one backing row.
  void DequantBackingRow(size_t row, float* dst) const;

  size_t vocab_;
  size_t dim_;
  QuantMode mode_;
  // Backend mapping replicated from the source table (remap shared, not
  // copied — see EmbeddingTable::remap()).
  EmbeddingBackendKind kind_ = EmbeddingBackendKind::kDense;
  QrCombine qr_combine_ = QrCombine::kSum;
  size_t qr_num_q_ = 0;
  size_t qr_rem_ = 1;
  size_t backing_rows_ = 0;
  std::shared_ptr<const std::vector<int32_t>> remap_;
  // int8 storage.
  AlignedVector<int8_t> q_;
  std::vector<float> scale_;
  std::vector<int8_t> zp_;
  // bf16 storage.
  AlignedVector<uint16_t> b_;
};

/// Round-to-nearest-even fp32 → bf16; a NaN maps to a quiet NaN of the
/// same sign (exposed for tests).
uint16_t FloatToBf16(float x);

}  // namespace optinter
