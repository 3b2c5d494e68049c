// Batch-oriented layers with explicit forward/backward.
//
// Every layer records what its backward pass needs during Forward();
// calling Backward() without a preceding Forward() on the same workspace
// CHECK-fails. Linear records a pointer to its input and Relu a pointer
// to its output, not copies: the tensors passed to Forward must stay
// alive and unchanged until the matching Backward. Parameter gradients
// accumulate (ZeroGrad between steps); input gradients are overwritten.
//
// Re-entrancy: the workspace-taking Forward overloads are const and keep
// all per-call state in the caller's workspace, so one layer can serve
// concurrent forward passes on different batches (parameters must be
// quiescent, i.e. no concurrent optimizer step). The workspace-less
// overloads use a private default workspace and are single-caller, like
// the original API. Backward accumulates into shared parameter gradients
// and must not run concurrently with another Backward on the same layer.
//
// Determinism: the parallel paths inside Backward use fixed chunk grids
// (a function of the batch shape only, never the pool size) with ordered
// reductions, so results are bit-identical at any thread count.

#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "nn/param.h"
#include "nn/workspace.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace optinter {

/// Fully connected layer: y = x W^T + b with W of shape [out × in].
class Linear {
 public:
  Linear(std::string name, size_t in_dim, size_t out_dim, float lr,
         float l2, Rng* rng);

  /// y: [B × out]. Records &x in `ws` for the backward pass (x is not
  /// copied). Re-entrant: concurrent calls with distinct workspaces are
  /// safe.
  void Forward(const Tensor& x, Tensor* y, LinearWorkspace* ws) const;

  /// Single-caller convenience using the layer's default workspace.
  void Forward(const Tensor& x, Tensor* y) { Forward(x, y, &ws_); }

  /// Inference forward over `packed_weight`, a PackNT of `weight` (valid
  /// while the weight is unchanged): same bits as Forward, without the
  /// per-call weight pack. Records nothing for Backward.
  void Forward(const Tensor& x, const PackedNT& packed_weight,
               Tensor* y) const;

  /// Accumulates dW, db; writes dx (pass nullptr to skip input grads,
  /// e.g. for the first layer). `ws` must come from the matching Forward,
  /// whose input x must still be alive and unchanged.
  void Backward(const Tensor& dy, Tensor* dx, const LinearWorkspace& ws);

  void Backward(const Tensor& dy, Tensor* dx) { Backward(dy, dx, ws_); }

  void RegisterParams(Optimizer* opt);
  size_t ParamCount() const { return weight.size() + bias.size(); }

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  DenseParam weight;  // [out × in]
  DenseParam bias;    // [out]

 private:
  /// y += bias, row by row.
  void AddBias(Tensor* y) const;

  size_t in_dim_;
  size_t out_dim_;
  LinearWorkspace ws_;
};

/// Elementwise ReLU. Keeps no mask: Backward rebuilds the {0,1} factor
/// from the Forward output y, which must still be alive and unchanged.
class Relu {
 public:
  void Forward(const Tensor& x, Tensor* y, ReluWorkspace* ws) const;
  void Forward(const Tensor& x, Tensor* y) { Forward(x, y, &ws_); }

  void Backward(const Tensor& dy, Tensor* dx, const ReluWorkspace& ws) const;
  void Backward(const Tensor& dy, Tensor* dx) { Backward(dy, dx, ws_); }

 private:
  ReluWorkspace ws_;
};

/// Layer normalization over the feature dimension of a [B × D] batch,
/// with learnable gain/bias (paper Eq. 11).
class LayerNorm {
 public:
  LayerNorm(std::string name, size_t dim, float lr, float l2);

  void Forward(const Tensor& x, Tensor* y, LayerNormWorkspace* ws) const;
  void Forward(const Tensor& x, Tensor* y) { Forward(x, y, &ws_); }

  void Backward(const Tensor& dy, Tensor* dx, const LayerNormWorkspace& ws);
  void Backward(const Tensor& dy, Tensor* dx) { Backward(dy, dx, ws_); }

  void RegisterParams(Optimizer* opt);
  size_t ParamCount() const { return gamma.size() + beta.size(); }

  DenseParam gamma;  // [D], init 1
  DenseParam beta;   // [D], init 0

 private:
  size_t dim_;
  static constexpr float kEps = 1e-5f;
  LayerNormWorkspace ws_;
};

/// Binary cross-entropy from logits (paper Eq. 13), mean over the batch.
///
/// Writes d(loss)/d(logit) into `dlogits` (length n) and returns the mean
/// loss. Numerically stable: loss_i = max(z,0) - z*y + log(1+exp(-|z|)).
float BceWithLogitsLoss(const float* logits, const float* labels, size_t n,
                        float* dlogits);

/// Convenience: sigmoid over a buffer.
void SigmoidForward(const float* z, size_t n, float* out);

}  // namespace optinter
