// Binary tensor / model / architecture persistence.
//
// Format (little-endian):
//   magic "OPTI" | u32 version | u64 tensor count |
//   per tensor: u32 ndim | u64 dims[ndim] | f32 data[prod(dims)]
//
// Model checkpoints reuse CtrModel::CollectState: the same non-owning
// tensor list that drives best-checkpoint restore also defines the
// on-disk state, so every model gets save/load for free. Loading
// validates shapes against the receiving model — the receiver must be
// constructed with the same dataset, hyper-parameters and architecture.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "models/interaction.h"
#include "models/model.h"
#include "tensor/tensor.h"

namespace optinter {

/// Writes tensors to `path`. Overwrites existing files.
Status SaveTensors(const std::string& path,
                   const std::vector<const Tensor*>& tensors);

/// Reads tensors from `path` into the given (pre-shaped) tensors.
/// The ENTIRE file is validated first — magic, version, tensor count,
/// every shape, and the exact byte length — so a truncated, corrupt, or
/// configuration-mismatched checkpoint fails with a clear message and the
/// output tensors completely untouched. Safe to call on a live model: on
/// error the previous weights remain intact.
Status LoadTensors(const std::string& path,
                   const std::vector<Tensor*>& tensors);

/// Saves every trainable tensor of `model`.
Status SaveModel(CtrModel* model, const std::string& path);

/// Restores a checkpoint into `model`; the model must have been
/// constructed identically to the one that saved it. A frozen (published)
/// model is refused with FailedPrecondition and left untouched.
Status LoadModel(CtrModel* model, const std::string& path);

/// Saves a searched architecture as a text file: one
/// "pair_index method_name" line per pair, so results are
/// human-inspectable and diffable.
Status SaveArchitecture(const Architecture& arch, const std::string& path);

/// Loads an architecture saved by SaveArchitecture.
Result<Architecture> LoadArchitecture(const std::string& path);

}  // namespace optinter
