// Inference-only quantized view of a trained FixedArchModel.
//
// QuantizeSnapshot (snapshot.h) converts a trained fp32 model once into
// this serving-only CtrModel: every embedding table becomes an int8 or
// bf16 QuantizedTable, and nothing else changes. It has no layout and no
// MLP of its own: Predict runs the source's InteractionLayout through the
// shared row assembler (core/interaction_layout.h) with a row source that
// dequantizes every table read, then the source's fp32 MLP
// (FixedArchModel::MlpLogits).
//
// Properties the serving layer relies on:
//  * Immutable after construction; Predict is const and re-entrant, so
//    the hot-swap slot can publish a quantized generation like any other
//    snapshot and serve it to concurrent clients.
//  * Backend-invariant gathers: dequantized rows are bitwise identical
//    under every dispatch backend. The MLP after them follows the
//    dispatch table exactly as the fp32 model's does, so a view's
//    predictions are pinned per backend, like fp32's.
//  * The training phases CHECK-fail: quantization is one-way; retraining
//    happens on the fp32 model and republishes through QuantizeSnapshot.
//  * Publishing a view freezes its fp32 source (CtrModel::Freeze): the
//    view runs the source's MLP, which then uses weights packed once.
//    Retrain a fresh fp32 instance, not a source whose view was published.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fixed_arch_model.h"
#include "nn/quant_embedding.h"

namespace optinter {
namespace serve {

class QuantizedFixedArchModel : public CtrModel {
 public:
  /// `source` must own (or be) the FixedArchModel referenced by `fp32`;
  /// it is retained so what this view reuses of it (the layout, the
  /// continuous-field rows, the MLP) outlives the view. Prefer
  /// QuantizeSnapshot over calling this directly.
  QuantizedFixedArchModel(std::shared_ptr<const CtrModel> source,
                          const FixedArchModel& fp32, QuantMode mode);

  std::string Name() const override { return name_; }
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override { return fp32_.ParamCount(); }

  QuantMode mode() const { return mode_; }

  /// Total bytes of quantized embedding storage (per-row metadata
  /// included) and the fp32 bytes of the same tables — the bytes/row
  /// compression ratio is the quotient.
  size_t EmbeddingBytes() const;
  size_t Fp32EmbeddingBytes() const;

 protected:
  /// Freezes the fp32 source, whose MLP (packed at its freeze) this view
  /// runs.
  void OnFreeze() const override;

 private:
  /// CHECK-fails every training phase: quantization is one-way.
  void FailInferenceOnly() const;

  /// int8/bf16 table reads for the shared row assembler's TableRows.
  struct DequantTables;

  std::shared_ptr<const CtrModel> source_;  // pins the reused fp32 layers
  const FixedArchModel& fp32_;
  QuantMode mode_;
  std::string name_;

  // Quantized tables in QuantizedSourceTables order, TableRows' table
  // numbering. Continuous fields read the source's fp32 rows: they are
  // single rows, nothing to compress.
  std::vector<QuantizedTable> tables_;
};

/// Every table a quantized view of `fp32` quantizes, in the view's order:
/// the categorical fields, then the memorized pair and triple blocks.
std::vector<const EmbeddingTable*> QuantizedSourceTables(
    const FixedArchModel& fp32);

}  // namespace serve
}  // namespace optinter
