// Inference-only quantized view of a trained FixedArchModel.
//
// QuantizeSnapshot (snapshot.h) converts a trained fp32 model once into
// this serving-only CtrModel: every embedding table becomes an int8 or
// bf16 QuantizedTable, and in int8 mode the MLP's Linear layers run as
// dynamic-activation int8 GEMMs (tensor/int8.h) with the fp32 ReLU /
// LayerNorm stages reused from the source model. It has no layout of its
// own: Predict runs the source's InteractionLayout through the shared row
// assembler (core/interaction_layout.h) with a row source that
// dequantizes every table read, then the int8 (or fp32) MLP.
//
// Properties the serving layer relies on:
//  * Immutable after construction; Predict is const and re-entrant, so
//    the hot-swap slot can publish a quantized generation like any other
//    snapshot and serve it to concurrent clients.
//  * Backend-invariant output: dequantized gathers are bitwise identical
//    under every dispatch backend, the int8 inner products are exact
//    integer math, and the single fp32 rounding per GEMM output lives in
//    shared non-variant code — so a quantized snapshot predicts the same
//    bits whether dispatch picked avx512, avx2-fma, sse2 or scalar.
//  * The training phases CHECK-fail: quantization is one-way; retraining
//    happens on the fp32 model and republishes through QuantizeSnapshot.
//  * Publishing a bf16 view freezes its fp32 source (CtrModel::Freeze):
//    the view runs the source's MLP, which then uses weights packed once.
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
  /// continuous-field rows, LayerNorm, the bf16-mode MLP) outlives the
  /// view. Prefer QuantizeSnapshot over calling this
  /// directly.
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
  /// included) and the fp32 bytes of the same tables — the bench's
  /// bytes/row compression ratio is the quotient.
  size_t EmbeddingBytes() const;
  size_t Fp32EmbeddingBytes() const;
  /// Total embedding rows across all quantized tables.
  size_t EmbeddingRows() const;

 protected:
  /// bf16: freezes the fp32 source, whose MLP (packed at its freeze)
  /// this view runs. int8: nothing to lay out.
  void OnFreeze() const override;

 private:
  /// CHECK-fails every training phase: quantization is one-way.
  void FailInferenceOnly() const;

  /// Per-output-row int8 weights of one Linear (tensor/int8.h layout).
  struct QuantLinear {
    size_t in = 0;
    size_t out = 0;
    AlignedVector<int8_t> qw;       // [out × in]
    std::vector<float> w_scale;     // [out]
    std::vector<int32_t> w_rowsum;  // [out]
    std::vector<float> bias;        // [out]
  };

  /// int8/bf16 table reads for the shared row assembler's TableRows.
  struct DequantTables;

  /// Sums `per_table(table)` over every quantized table.
  template <typename Fn>
  size_t SumOverTables(Fn per_table) const;

  /// int8 MLP forward over z (int8 mode only): Mlp::ForwardWith with
  /// QuantLinearForward as the affine step.
  void MlpForwardInt8(const Tensor& z, Tensor* y, ForwardContext* ctx) const;
  void QuantLinearForward(const QuantLinear& layer, const Tensor& x,
                          Tensor* y, QuantScratch* qs) const;

  std::shared_ptr<const CtrModel> source_;  // pins the reused fp32 layers
  const FixedArchModel& fp32_;
  QuantMode mode_;
  std::string name_;

  // Quantized tables, in the fp32 layers' order. Continuous fields read
  // the source's fp32 rows: they are single rows, nothing to compress.
  std::vector<QuantizedTable> cat_tables_;
  std::vector<QuantizedTable> cross_tables_;
  std::vector<QuantizedTable> triple_tables_;
  std::vector<QuantLinear> qlinears_;  // int8 mode only
};

}  // namespace serve
}  // namespace optinter
