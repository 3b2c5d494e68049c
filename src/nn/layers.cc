#include "nn/layers.h"

#include <cmath>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "nn/init.h"
#include "tensor/aligned.h"
#include "tensor/dispatch.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace optinter {

namespace {
// Element count above which the elementwise/per-row loops fan out across
// the pool. Forward loops write disjoint elements (bit-identical to serial
// under any chunking); backward reductions use fixed chunk grids so the
// summation tree depends only on the shape.
constexpr size_t kParallelElems = 1u << 15;

constexpr size_t kL = simd::kLanes;
}  // namespace

Linear::Linear(std::string name, size_t in_dim, size_t out_dim, float lr,
               float l2, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight.name = name + "/weight";
  weight.Resize({out_dim, in_dim});
  weight.lr = lr;
  weight.l2 = l2;
  XavierUniform(&weight.value, in_dim, out_dim, rng);
  bias.name = name + "/bias";
  bias.Resize({out_dim});
  bias.lr = lr;
  bias.l2 = 0.0f;  // biases are conventionally not decayed
}

void Linear::Forward(const Tensor& x, Tensor* y, LinearWorkspace* ws) const {
  OPTINTER_TRACE_SPAN("linear_fwd");
  CHECK_EQ(x.cols(), in_dim_);
  ws->x = &x;
  // GemmNT at beta=0 writes every element of y before the bias add.
  y->ResizeForOverwrite({x.rows(), out_dim_});
  GemmNT(x.data(), weight.value.data(), y->data(), x.rows(), in_dim_,
         out_dim_);
  AddBias(y);
}

void Linear::Forward(const Tensor& x, const PackedNT& packed_weight,
                     Tensor* y) const {
  OPTINTER_TRACE_SPAN("linear_fwd");
  CHECK_EQ(x.cols(), in_dim_);
  CHECK_EQ(packed_weight.k(), in_dim_);
  CHECK_EQ(packed_weight.n(), out_dim_);
  y->ResizeForOverwrite({x.rows(), out_dim_});
  GemmNTPacked(x.data(), packed_weight, y->data(), x.rows());
  AddBias(y);
}

void Linear::AddBias(Tensor* y) const {
  const float* b = bias.value.data();
  const size_t out_dim = out_dim_;
  auto add_bias = [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* yr = y->row(r);
      size_t j = 0;
      for (; j + kL <= out_dim; j += kL) {
        simd::StoreU(yr + j,
                     simd::Add(simd::LoadU(yr + j), simd::LoadU(b + j)));
      }
      for (; j < out_dim; ++j) yr[j] += b[j];
    }
  };
  if (y->size() >= kParallelElems) {
    ParallelForChunks(0, y->rows(), add_bias, /*min_chunk=*/64);
  } else {
    add_bias(0, y->rows());
  }
}

void Linear::Backward(const Tensor& dy, Tensor* dx,
                      const LinearWorkspace& ws) {
  OPTINTER_TRACE_SPAN("linear_bwd");
  CHECK(ws.x != nullptr)
      << "Linear::Backward without a matching Forward on this workspace";
  const Tensor& x = *ws.x;
  CHECK_EQ(dy.cols(), out_dim_);
  CHECK_EQ(dy.rows(), x.rows());
  CHECK_EQ(x.cols(), in_dim_);
  // dW[out×in] += dy^T x  : GemmTN with A=dy [B×out], B=x [B×in].
  GemmTN(dy.data(), x.data(), weight.grad.data(), dy.rows(), out_dim_,
         in_dim_, 1.0f, 1.0f);
  // db += column sums of dy — a reduction over rows. The fixed chunk grid
  // and chunk-ordered merge keep the sum bit-identical at any thread
  // count (the path choice depends only on the shape).
  const size_t rows = dy.rows();
  const size_t out_dim = out_dim_;
  float* db = bias.grad.data();
  auto col_sums = [&](size_t lo, size_t hi, float* acc) {
    for (size_t r = lo; r < hi; ++r) {
      const float* dyr = dy.row(r);
      size_t j = 0;
      for (; j + kL <= out_dim; j += kL) {
        simd::StoreU(acc + j,
                     simd::Add(simd::LoadU(acc + j), simd::LoadU(dyr + j)));
      }
      for (; j < out_dim; ++j) acc[j] += dyr[j];
    }
  };
  const FixedChunks grid = MakeFixedChunks(rows, /*min_chunk=*/64);
  if (dy.size() >= kParallelElems && grid.count > 1) {
    // Caller-thread-local partial buffer: assign() reuses capacity, so
    // steady-state steps don't allocate. Workers must write the CALLER's
    // buffer, and lambdas don't capture thread_locals (each worker would
    // silently get its own empty vector) — hence the hoisted pointer.
    static thread_local AlignedVector<float> partials_tls;
    partials_tls.assign(grid.count * out_dim_, 0.0f);
    float* const partials = partials_tls.data();
    ParallelForEachChunk(grid, [&, partials](size_t i) {
      col_sums(grid.lo(i), grid.hi(i), partials + i * out_dim_);
    });
    for (size_t i = 0; i < grid.count; ++i) {
      const float* p = partials + i * out_dim_;
      for (size_t j = 0; j < out_dim_; ++j) db[j] += p[j];
    }
  } else {
    col_sums(0, rows, db);
  }
  if (dx != nullptr) {
    // dx[B×in] = dy[B×out] * W[out×in]; GemmNN at beta=0 writes all of dx.
    dx->ResizeForOverwrite({dy.rows(), in_dim_});
    GemmNN(dy.data(), weight.value.data(), dx->data(), dy.rows(), out_dim_,
           in_dim_);
  }
}

void Linear::RegisterParams(Optimizer* opt) {
  opt->AddParam(&weight);
  opt->AddParam(&bias);
}

void Relu::Forward(const Tensor& x, Tensor* y, ReluWorkspace* ws) const {
  y->ResizeForOverwrite(x.shape());
  ws->y = y;
  const float* xp = x.data();
  auto body = [&](size_t lo, size_t hi) {
    float* yp = y->data();
    const simd::VecF zero = simd::Zero();
    size_t i = lo;
    // The vector and scalar forms are exact (compare + select), so an
    // element's bits never depend on which side of a group boundary it
    // lands on — chunking stays bit-invariant.
    for (; i + kL <= hi; i += kL) {
      const simd::VecF xv = simd::LoadU(xp + i);
      const simd::VecF pos = simd::GtMask(xv, zero);
      simd::StoreU(yp + i, simd::Select(pos, xv, zero));
    }
    for (; i < hi; ++i) yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
  };
  if (x.size() >= kParallelElems) {
    ParallelForChunks(0, x.size(), body, /*min_chunk=*/4096);
  } else {
    body(0, x.size());
  }
}

void Relu::Backward(const Tensor& dy, Tensor* dx,
                    const ReluWorkspace& ws) const {
  OPTINTER_TRACE_SPAN("relu_bwd");
  CHECK(ws.y != nullptr)
      << "Relu::Backward without a matching Forward on this workspace";
  const Tensor& y = *ws.y;
  CHECK(dy.SameShape(y));
  dx->Resize(dy.shape());
  const float* dyp = dy.data();
  const float* yp = y.data();
  // The {0,1} factor is rebuilt from the forward output: y > 0 exactly
  // where x > 0 (y is x there and +0 elsewhere, NaN inputs included), and
  // dy is multiplied by the same 1.0f/0.0f the forward used to store.
  auto body = [&](size_t lo, size_t hi) {
    float* dxp = dx->data();
    const simd::VecF zero = simd::Zero();
    const simd::VecF one = simd::Set1(1.0f);
    size_t i = lo;
    for (; i + kL <= hi; i += kL) {
      const simd::VecF factor =
          simd::And(simd::GtMask(simd::LoadU(yp + i), zero), one);
      simd::StoreU(dxp + i, simd::Mul(simd::LoadU(dyp + i), factor));
    }
    for (; i < hi; ++i) dxp[i] = dyp[i] * (yp[i] > 0.0f ? 1.0f : 0.0f);
  };
  // Disjoint elementwise writes; a single multiply rounds identically in
  // vector and scalar form, so the fan-out is bit-identical to serial
  // under any chunking.
  if (dy.size() >= kParallelElems) {
    ParallelForChunks(0, dy.size(), body, /*min_chunk=*/4096);
  } else {
    body(0, dy.size());
  }
}

LayerNorm::LayerNorm(std::string name, size_t dim, float lr, float l2)
    : dim_(dim) {
  gamma.name = name + "/gamma";
  gamma.Resize({dim});
  gamma.value.Fill(1.0f);
  gamma.lr = lr;
  gamma.l2 = l2;
  beta.name = name + "/beta";
  beta.Resize({dim});
  beta.lr = lr;
  beta.l2 = 0.0f;
}

void LayerNorm::Forward(const Tensor& x, Tensor* y,
                        LayerNormWorkspace* ws) const {
  OPTINTER_TRACE_SPAN("layernorm_fwd");
  CHECK_EQ(x.cols(), dim_);
  const size_t batch = x.rows();
  const size_t dim = dim_;
  // Every row of y, xhat and inv_std is written below.
  y->ResizeForOverwrite({batch, dim_});
  ws->xhat.ResizeForOverwrite({batch, dim_});
  ws->inv_std.ResizeForOverwrite({batch});
  Tensor& xhat = ws->xhat;
  Tensor& inv_std_cache = ws->inv_std;
  const float* g = gamma.value.data();
  const float* b = beta.value.data();
  // Rows are whole per chunk and each row's reductions use a vector-group
  // layout that depends only on dim_, so results are chunking-invariant.
  auto body = [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      const float* xr = x.row(r);
      const float mean = Sum(dim, xr) / static_cast<float>(dim);
      const simd::VecF mean_v = simd::Set1(mean);
      simd::VecF vacc = simd::Zero();
      size_t j = 0;
      for (; j + kL <= dim; j += kL) {
        const simd::VecF d = simd::Sub(simd::LoadU(xr + j), mean_v);
        vacc = simd::MulAdd(d, d, vacc);
      }
      float var = simd::ReduceAdd(vacc);
      for (; j < dim; ++j) {
        const float d = xr[j] - mean;
        var = simd::MulAddScalar(d, d, var);
      }
      var /= static_cast<float>(dim);
      const float inv_std = 1.0f / std::sqrt(var + kEps);
      inv_std_cache[r] = inv_std;
      const simd::VecF is_v = simd::Set1(inv_std);
      float* xh = xhat.row(r);
      float* yr = y->row(r);
      j = 0;
      for (; j + kL <= dim; j += kL) {
        const simd::VecF xhv =
            simd::Mul(simd::Sub(simd::LoadU(xr + j), mean_v), is_v);
        simd::StoreU(xh + j, xhv);
        simd::StoreU(yr + j,
                     simd::MulAdd(xhv, simd::LoadU(g + j), simd::LoadU(b + j)));
      }
      for (; j < dim; ++j) {
        xh[j] = (xr[j] - mean) * inv_std;
        yr[j] = simd::MulAddScalar(xh[j], g[j], b[j]);
      }
    }
  };
  if (batch * dim_ >= kParallelElems) {
    ParallelForChunks(0, batch, body, /*min_chunk=*/64);
  } else {
    body(0, batch);
  }
}

void LayerNorm::Backward(const Tensor& dy, Tensor* dx,
                         const LayerNormWorkspace& ws) {
  OPTINTER_TRACE_SPAN("layernorm_bwd");
  CHECK_EQ(dy.cols(), dim_);
  const size_t batch = dy.rows();
  const size_t dim = dim_;
  CHECK_EQ(batch, ws.xhat.rows());
  dx->Resize({batch, dim_});
  const float* g = gamma.value.data();
  float* dg = gamma.grad.data();
  float* db = beta.grad.data();
  const float inv_n = 1.0f / static_cast<float>(dim_);
  // Per-row dx writes are disjoint; dgamma/dbeta are reductions over rows
  // accumulated into `dg_acc`/`db_acc` (the shared grads on the serial
  // path, per-chunk partials on the parallel one).
  auto body = [&](size_t lo, size_t hi, float* dg_acc, float* db_acc) {
    for (size_t r = lo; r < hi; ++r) {
      const float* dyr = dy.row(r);
      const float* xh = ws.xhat.row(r);
      const float inv_std = ws.inv_std[r];
      simd::VecF sum1_v = simd::Zero();  // Σ dxhat
      simd::VecF sum2_v = simd::Zero();  // Σ dxhat·xhat
      size_t j = 0;
      for (; j + kL <= dim; j += kL) {
        const simd::VecF dyv = simd::LoadU(dyr + j);
        const simd::VecF xhv = simd::LoadU(xh + j);
        const simd::VecF dxhat = simd::Mul(dyv, simd::LoadU(g + j));
        sum1_v = simd::Add(sum1_v, dxhat);
        sum2_v = simd::MulAdd(dxhat, xhv, sum2_v);
        simd::StoreU(dg_acc + j,
                     simd::MulAdd(dyv, xhv, simd::LoadU(dg_acc + j)));
        simd::StoreU(db_acc + j, simd::Add(simd::LoadU(db_acc + j), dyv));
      }
      float sum_dxhat = simd::ReduceAdd(sum1_v);
      float sum_dxhat_xhat = simd::ReduceAdd(sum2_v);
      for (; j < dim; ++j) {
        const float dxhat = dyr[j] * g[j];
        sum_dxhat += dxhat;
        sum_dxhat_xhat = simd::MulAddScalar(dxhat, xh[j], sum_dxhat_xhat);
        dg_acc[j] = simd::MulAddScalar(dyr[j], xh[j], dg_acc[j]);
        db_acc[j] += dyr[j];
      }
      const float c1 = inv_n * sum_dxhat;
      const float c2 = inv_n * sum_dxhat_xhat;
      const simd::VecF c1_v = simd::Set1(c1);
      const simd::VecF c2_v = simd::Set1(c2);
      const simd::VecF is_v = simd::Set1(inv_std);
      float* dxr = dx->row(r);
      j = 0;
      for (; j + kL <= dim; j += kL) {
        const simd::VecF dxhat =
            simd::Mul(simd::LoadU(dyr + j), simd::LoadU(g + j));
        const simd::VecF t = simd::Sub(
            simd::Sub(dxhat, c1_v), simd::Mul(simd::LoadU(xh + j), c2_v));
        simd::StoreU(dxr + j, simd::Mul(is_v, t));
      }
      for (; j < dim; ++j) {
        const float dxhat = dyr[j] * g[j];
        dxr[j] = inv_std * ((dxhat - c1) - xh[j] * c2);
      }
    }
  };
  const FixedChunks grid = MakeFixedChunks(batch, /*min_chunk=*/64);
  if (batch * dim_ >= kParallelElems && grid.count > 1) {
    // Per-chunk gradient partials merged in chunk order: the fixed grid
    // keeps the summation tree — and therefore every bit of dg/db —
    // independent of the thread count. Caller-thread-local so capacity
    // survives across steps (zero-allocation contract); the pointer is
    // hoisted because lambdas don't capture thread_locals and workers must
    // write the caller's buffer, not their own.
    static thread_local AlignedVector<float> partials_tls;
    partials_tls.assign(grid.count * 2 * dim_, 0.0f);
    float* const partials = partials_tls.data();
    ParallelForEachChunk(grid, [&, partials](size_t i) {
      float* p = partials + i * 2 * dim_;
      body(grid.lo(i), grid.hi(i), p, p + dim_);
    });
    for (size_t i = 0; i < grid.count; ++i) {
      const float* p = partials + i * 2 * dim_;
      for (size_t j = 0; j < dim_; ++j) {
        dg[j] += p[j];
        db[j] += p[dim_ + j];
      }
    }
  } else {
    body(0, batch, dg, db);
  }
}

void LayerNorm::RegisterParams(Optimizer* opt) {
  opt->AddParam(&gamma);
  opt->AddParam(&beta);
}

float BceWithLogitsLoss(const float* logits, const float* labels, size_t n,
                        float* dlogits) {
  CHECK_GT(n, 0u);
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (size_t i = 0; i < n; ++i) {
    const float z = logits[i];
    const float y = labels[i];
    total += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
    dlogits[i] = (SigmoidScalar(z) - y) * inv_n;
  }
  return static_cast<float>(total / static_cast<double>(n));
}

void SigmoidForward(const float* z, size_t n, float* out) {
  // The element math lives in the dispatch table's sigmoid range kernel
  // (gemm_body.inc): every element — including the sub-vector remainder
  // of a chunk — goes through the selected backend's lane function via a
  // zero-padded tail vector, so chunk boundaries (which depend on the
  // pool size) cannot affect any element's bits and the fan-out below
  // stays bit-identical to serial. (On the scalar backend the lane
  // function IS SigmoidScalar, bit for bit.)
  const KernelTable& table = ActiveKernels();
  auto body = [&table, z, out](size_t lo, size_t hi) {
    table.sigmoid(z + lo, hi - lo, out + lo);
  };
  if (n >= kParallelElems) {
    ParallelForChunks(0, n, body, /*min_chunk=*/4096);
  } else {
    body(0, n);
  }
}

}  // namespace optinter
