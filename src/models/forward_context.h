// Per-call forward state for CtrModel.
//
// Every model keeps each batch-sized activation of one Predict call inside
// a ForwardContext owned by the caller instead of in model members. Two
// Predict calls with distinct contexts then share only immutable
// parameters, so they may run concurrently on different batches (the
// batch-parallel evaluation path in train/trainer.cc, the serving layer).
// The training path reuses one long-lived context per model as its
// activation cache between forward and backward.

#pragma once

#include <vector>

#include "nn/workspace.h"
#include "tensor/tensor.h"

namespace optinter {

/// Scratch for one forward pass of a model. Buffers are resized by the
/// model and keep their capacity across calls, so reusing one context per
/// evaluation task amortizes allocation. A model uses only the fields it
/// needs.
struct ForwardContext {
  Tensor emb_out;     // [B × emb_cols] original-feature embeddings
  Tensor first_order;  // [B × fields] first-order weights (FM family, DeepFM)
  Tensor cross_out;   // [B × pairs·s2] memorized pair embeddings
  Tensor triple_out;  // [B × triples·s2] memorized triple embeddings
  Tensor z;           // [B × mlp_in] assembled classifier input
  Tensor mlp_out;     // [B × 1] classifier output
  MlpWorkspace mlp;   // per-layer activation caches of the MLP tower
  // PIN: per-pair sub-network inputs [B × 3·s1], outputs and workspaces.
  std::vector<Tensor> subnet_in;
  std::vector<Tensor> subnet_out;
  std::vector<MlpWorkspace> subnet_ws;
  std::vector<float> logits;  // [B]
};

}  // namespace optinter
