#include "nn/mlp.h"
#include "obs/trace.h"

namespace optinter {

Mlp::Mlp(std::string name, size_t in_dim, const MlpConfig& config, Rng* rng)
    : in_dim_(in_dim), config_(config) {
  CHECK_GT(in_dim, 0u);
  CHECK_GT(config.out_dim, 0u);
  size_t prev = in_dim;
  for (size_t li = 0; li < config.hidden.size(); ++li) {
    const size_t width = config.hidden[li];
    linears_.emplace_back(name + "/linear" + std::to_string(li), prev, width,
                          config.lr, config.l2, rng);
    relus_.emplace_back();
    if (config.layer_norm) {
      norms_.emplace_back(name + "/ln" + std::to_string(li), width,
                          config.lr, config.l2);
    }
    prev = width;
  }
  linears_.emplace_back(name + "/out", prev, config.out_dim, config.lr,
                        config.l2, rng);
}

void Mlp::Forward(const Tensor& x, Tensor* y, MlpWorkspace* ws) const {
  OPTINTER_TRACE_SPAN("mlp_forward");
  ws->linears.resize(linears_.size());
  ForwardWith(x, y, ws, [&](size_t li, const Tensor& in, Tensor* out) {
    linears_[li].Forward(in, out, &ws->linears[li]);
  });
}

void Mlp::Backward(const Tensor& dy, Tensor* dx, MlpWorkspace* ws) {
  OPTINTER_TRACE_SPAN("mlp_backward");
  const size_t n_hidden = config_.hidden.size();
  CHECK_EQ(ws->linears.size(), linears_.size())
      << "Backward without a matching Forward on this workspace";
  ws->grads.resize(2 * n_hidden + 2);
  const Tensor* cur_grad = &dy;
  size_t slot = 0;
  // Output layer.
  {
    Tensor& g = ws->grads[slot++];
    Tensor* target = (n_hidden == 0) ? dx : &g;
    linears_[n_hidden].Backward(*cur_grad, target, ws->linears[n_hidden]);
    if (n_hidden == 0) return;
    cur_grad = &g;
  }
  for (size_t li = n_hidden; li-- > 0;) {
    if (config_.layer_norm) {
      Tensor& g = ws->grads[slot++];
      norms_[li].Backward(*cur_grad, &g, ws->norms[li]);
      cur_grad = &g;
    }
    Tensor& g_relu = ws->grads[slot++];
    relus_[li].Backward(*cur_grad, &g_relu, ws->relus[li]);
    cur_grad = &g_relu;
    Tensor* target = (li == 0) ? dx : &ws->grads[slot++];
    linears_[li].Backward(*cur_grad, target, ws->linears[li]);
    if (li != 0) cur_grad = target;
  }
}

void Mlp::RegisterParams(Optimizer* opt) {
  for (auto& l : linears_) l.RegisterParams(opt);
  for (auto& n : norms_) n.RegisterParams(opt);
}

size_t Mlp::ParamCount() const {
  size_t total = 0;
  for (const auto& l : linears_) total += l.ParamCount();
  for (const auto& n : norms_) total += n.ParamCount();
  return total;
}

}  // namespace optinter
