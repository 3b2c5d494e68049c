// MLP classifier used by all deep models in the paper (§II-B4):
// a stack of Linear → ReLU → LayerNorm blocks followed by a final Linear
// projection (to the logit, or to a vector for PIN sub-nets).

#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"

namespace optinter {

/// Configuration of an Mlp tower.
struct MlpConfig {
  /// Hidden layer widths, e.g. {64, 32}; empty means a single Linear.
  std::vector<size_t> hidden;
  /// Output width (1 for a CTR logit).
  size_t out_dim = 1;
  /// Apply LayerNorm after each hidden activation (paper: LN=true).
  bool layer_norm = true;
  float lr = 1e-3f;
  float l2 = 0.0f;
};

/// Feed-forward tower with hand-derived backprop.
///
/// The workspace-taking Forward overload is const and re-entrant:
/// concurrent calls on different batches with distinct workspaces are
/// safe as long as parameters are quiescent (no concurrent optimizer
/// step). The workspace-less overloads use a private default workspace
/// (single caller, the training path).
class Mlp {
 public:
  Mlp(std::string name, size_t in_dim, const MlpConfig& config, Rng* rng);

  /// y: [B × out_dim]. All per-call state lives in `ws`.
  void Forward(const Tensor& x, Tensor* y, MlpWorkspace* ws) const;
  void Forward(const Tensor& x, Tensor* y) { Forward(x, y, &ws_); }

  /// The tower's one layer loop with a caller-supplied affine step:
  /// `linear_step(li, in, out)` maps layer li's input to its output (li =
  /// hidden.size() is the output layer); this Mlp's ReLUs and LayerNorms
  /// run between the steps. Forward passes its fp32 Linears; a frozen
  /// FixedArchModel passes the same Linears over weights it packed once.
  /// Activations live in `ws->acts`, whose slot layout (and so its buffer
  /// capacity) is shared by every caller.
  template <typename LinearStep>
  void ForwardWith(const Tensor& x, Tensor* y, MlpWorkspace* ws,
                   LinearStep&& linear_step) const;

  /// Accumulates parameter grads; writes dx unless nullptr. `ws` must
  /// come from the matching Forward call.
  void Backward(const Tensor& dy, Tensor* dx, MlpWorkspace* ws);
  void Backward(const Tensor& dy, Tensor* dx) { Backward(dy, dx, &ws_); }

  void RegisterParams(Optimizer* opt);
  size_t ParamCount() const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return config_.out_dim; }

  // Read-only layer access: a frozen FixedArchModel packs each Linear's
  // weights once.
  const MlpConfig& config() const { return config_; }
  const std::vector<Linear>& linears() const { return linears_; }

 private:
  size_t in_dim_;
  MlpConfig config_;
  std::vector<Linear> linears_;       // hidden layers + output layer
  std::vector<Relu> relus_;           // one per hidden layer
  std::vector<LayerNorm> norms_;      // one per hidden layer (if enabled)
  MlpWorkspace ws_;                   // default workspace (training path)
};

template <typename LinearStep>
void Mlp::ForwardWith(const Tensor& x, Tensor* y, MlpWorkspace* ws,
                      LinearStep&& linear_step) const {
  const size_t n_hidden = config_.hidden.size();
  ws->relus.resize(relus_.size());
  ws->norms.resize(norms_.size());
  // Per-hidden slots: post-linear, post-relu, and (with layer_norm) the
  // normed output in its own workspace slot — a local temporary here would
  // reallocate every call and break the steady-state zero-allocation
  // contract for TrainStep.
  const size_t per_hidden = config_.layer_norm ? 3 : 2;
  ws->acts.resize(per_hidden * n_hidden + 1);
  const Tensor* cur = &x;
  size_t slot = 0;
  for (size_t li = 0; li < n_hidden; ++li) {
    Tensor& lin_out = ws->acts[slot++];
    linear_step(li, *cur, &lin_out);
    Tensor& act_out = ws->acts[slot++];
    relus_[li].Forward(lin_out, &act_out, &ws->relus[li]);
    cur = &act_out;
    if (config_.layer_norm) {
      Tensor& normed = ws->acts[slot++];
      norms_[li].Forward(act_out, &normed, &ws->norms[li]);
      cur = &normed;
    }
  }
  linear_step(n_hidden, *cur, y);
}

}  // namespace optinter
