// Per-call activation workspaces for the nn layers.
//
// Each layer's Forward records what its Backward needs: Linear a pointer
// to its input, Relu a pointer to its output (the {0,1} derivative is
// rebuilt from it), LayerNorm the normalized input and per-row inverse
// std. The pointed-to tensors are not copied, so they must stay alive and
// unchanged from Forward until the matching Backward (layers.h).
//
// Historically this state lived in layer members, which made Forward
// non-re-entrant: two concurrent Predict calls on different batches
// clobbered each other's activations, forcing evaluation to run batches
// serially. The structs below move that per-call state into
// a caller-owned workspace threaded through Forward/Backward, so a shared
// (read-only) layer can serve any number of concurrent calls, each with
// its own workspace. Every layer keeps one private default workspace
// behind its workspace-less overloads for the single-caller training path,
// so existing call sites are unchanged.

#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace optinter {

/// Forward-pass state of one Linear call: the input the dW GEMM reads.
struct LinearWorkspace {
  const Tensor* x = nullptr;
};

/// Forward-pass state of one Relu call: the output, whose positive
/// entries mark where the gradient passes.
struct ReluWorkspace {
  const Tensor* y = nullptr;
};

/// Forward-pass state of one LayerNorm call.
struct LayerNormWorkspace {
  Tensor xhat;     // [B × D]
  Tensor inv_std;  // [B]
};

/// Workspaces for every sub-layer of an Mlp plus the inter-layer
/// activation / gradient scratch tensors.
struct MlpWorkspace {
  std::vector<LinearWorkspace> linears;
  std::vector<ReluWorkspace> relus;
  std::vector<LayerNormWorkspace> norms;
  std::vector<Tensor> acts;
  std::vector<Tensor> grads;
};

}  // namespace optinter
