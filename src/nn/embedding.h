// Embedding table with pluggable storage backends and lazy sparse-Adam.
//
// CTR embedding tables (especially the cross-product tables E^m of the
// memorized method) hold the overwhelming majority of model parameters;
// per-step dense moment updates would dominate training cost. Gradients
// are therefore accumulated only for rows touched by the current batch,
// and the Adam update runs over exactly those rows (sparse Adam: moments
// of untouched rows are left stale, bias correction uses the table-global
// step count).
//
// Storage backends (DESIGN.md §12). A table always owns ONE backing
// tensor of [BackingRows() × dim] rows; backends differ only in how a
// logical id maps onto backing rows:
//
//  * kDense — identity: backing row == logical id. The seed behavior.
//  * kQR — quotient–remainder compositional rows (Shi et al., "QR trick"):
//    row(id) = combine(Q[id / r], R[num_q + id % r]) with combine either
//    element-wise sum or element-wise product. Memory is num_q + r rows
//    (≈ 2·sqrt(vocab) at the default r = ceil(sqrt(vocab))) instead of
//    vocab rows. Q rows occupy backing [0, num_q), R rows
//    [num_q, num_q + r) — the two spaces are disjoint, which is what
//    keeps the sharded gradient scatter deterministic (see below).
//  * kTiered — frequency-tiered rows: the top-K hot ids each own a
//    private backing row; every other (cold) id shares one of B hashed
//    bucket rows via ShardStableHash64(id, salt) % B. The hot set comes
//    from the encoder's Misra-Gries frequency stats (shard MANIFEST), an
//    exact scan of the construction dataset, or — matching the hashed
//    encoder's id layout, where ids 1..K are the most frequent values —
//    the fallback hot set {1..K}.
//
// Determinism with shared backing rows: gradient slots and shards are
// keyed on the BACKING row, not the logical id, so two logical ids that
// collide on a backing row (QR remainder reuse, tiered bucket sharing)
// accumulate into one slot in ascending batch-row order, and the
// optimizer updates that row once per step from the summed gradient.
// Q-space and R-space backing rows are disjoint, so a backing row only
// ever receives primary-part or secondary-part contributions, never an
// interleaving of both.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace optinter {

/// Storage backend of an EmbeddingTable.
enum class EmbeddingBackendKind : uint8_t { kDense = 0, kQR = 1, kTiered = 2 };

/// How a QR table combines its quotient and remainder rows.
enum class QrCombine : uint8_t { kSum = 0, kMul = 1 };

/// Per-table backend selection + knobs. Default-constructed = dense (the
/// seed behavior). Zero-valued knobs mean "derive from the vocab size".
struct EmbeddingBackendConfig {
  EmbeddingBackendKind kind = EmbeddingBackendKind::kDense;

  /// Tables with vocab below this stay dense when the config is applied
  /// through ResolveBackendForVocab (compressing tiny tables saves
  /// nothing and costs AUC). Applied at the embedding-layer level, not by
  /// the EmbeddingTable constructor, which honors the config literally.
  size_t min_vocab = 16;

  /// QR remainder count r. 0 = ceil(sqrt(vocab)), the memory-optimal
  /// square split.
  size_t qr_rem = 0;
  QrCombine qr_combine = QrCombine::kSum;

  /// Tiered: private rows for the top `tier_hot` ids and `tier_buckets`
  /// shared rows for the cold tail. 0 = vocab/16 each (≥ 1), an 8×
  /// row reduction.
  size_t tier_hot = 0;
  size_t tier_buckets = 0;
  /// Salt for the cold-tail bucket hash (ShardStableHash64).
  uint64_t tier_salt = 0x0e17b3d5u;
  /// Explicit hot ids (frequency-ranked, most frequent first). Empty =
  /// derive: dataset frequency stats if available, else ids 1..K (the
  /// hashed encoder places the most frequent values there).
  std::vector<int32_t> tier_hot_ids;

  static EmbeddingBackendConfig Dense() { return {}; }
  static EmbeddingBackendConfig QR(size_t rem = 0,
                                   QrCombine combine = QrCombine::kSum) {
    EmbeddingBackendConfig c;
    c.kind = EmbeddingBackendKind::kQR;
    c.qr_rem = rem;
    c.qr_combine = combine;
    return c;
  }
  static EmbeddingBackendConfig Tiered(size_t hot = 0, size_t buckets = 0,
                                       std::vector<int32_t> hot_ids = {}) {
    EmbeddingBackendConfig c;
    c.kind = EmbeddingBackendKind::kTiered;
    c.tier_hot = hot;
    c.tier_buckets = buckets;
    c.tier_hot_ids = std::move(hot_ids);
    return c;
  }
};

/// Applies a layer-level backend policy to one table's vocab: tables
/// below policy.min_vocab stay dense, and a dense policy is overridden by
/// the OPTINTER_EMBED_BACKEND environment variable ("qr" / "qr_sum",
/// "qr_mul", "tiered") — the CI drop-in-parity hook that flips every
/// sizeable embedding-layer table to a compositional backend. Raw
/// EmbeddingTable construction (LR/FM/Poly2 weight stores, unit tests)
/// never goes through this resolution and is unaffected.
EmbeddingBackendConfig ResolveBackendForVocab(
    const EmbeddingBackendConfig& policy, size_t vocab_size);

/// One [vocab × dim] logical embedding table with sparse-Adam state,
/// stored through the configured backend.
class EmbeddingTable {
 public:
  /// Creates a zeroed table; call Init() to randomize. The config is
  /// honored literally (apply ResolveBackendForVocab first for
  /// min-vocab/env-policy resolution).
  EmbeddingTable(std::string name, size_t vocab_size, size_t dim, float lr,
                 float l2, EmbeddingBackendConfig config = {});

  /// Initializes backing entries with N(0, stddev); the conventional
  /// small-variance embedding init used by CTR models. QR-mul tables use
  /// sqrt(stddev) per factor so the combined row keeps magnitude ~stddev.
  void Init(Rng* rng, double stddev = 0.01);

  /// Read-only pointer to the single backing row of `id`. Valid for
  /// dense and tiered backends (tiered: cold ids alias their bucket row);
  /// QR rows are composed on the fly and have no backing pointer — use
  /// CopyRow.
  const float* Row(int32_t id) const {
    CheckId(id, "Row");
    CHECK(kind_ != EmbeddingBackendKind::kQR)
        << "embedding table '" << name_ << "': Row(" << id
        << ") on a QR backend — QR rows are composed from quotient and "
           "remainder factors and have no single backing row; use "
           "CopyRow(id, dst)";
    return value_.data() + static_cast<size_t>(PrimaryRowOf(id)) * dim_;
  }

  /// Mutable row pointer (tests / manual surgery). Same backend
  /// restrictions as Row; tiered cold ids alias their shared bucket row.
  float* MutableRow(int32_t id) {
    return const_cast<float*>(Row(id));
  }

  /// Materializes the embedding row of `id` into dst[0:dim] — the one
  /// gather primitive every backend supports (dense/tiered: copy; QR:
  /// combine the two factor rows). All forward/gather paths go through
  /// this or CopyRows, one body, so combine order is identical everywhere.
  void CopyRow(int32_t id, float* dst) const;
  /// CopyRow for ids[0:n], row r into dst + r·dst_stride, with the backend
  /// resolved once for all n; every id is checked.
  void CopyRows(const int32_t* ids, size_t n, float* dst,
                size_t dst_stride) const;

  /// Number of backing-row-keyed gradient shards. Fixed (never a function
  /// of the thread count), so shard contents — and therefore the
  /// optimizer step — are identical however the scatter was parallelized.
  static constexpr size_t kGradShards = 4;

  /// Shard owning backing row `row`'s gradient slot. NOTE: keyed on the
  /// backing row, not the logical id (they coincide only for dense).
  static size_t ShardOf(int32_t row) {
    return static_cast<size_t>(static_cast<uint32_t>(row)) % kGradShards;
  }

  /// Backing row holding `id`'s primary part (dense: id; tiered: hot or
  /// bucket row; QR: the quotient row).
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

  /// Backing row of `id`'s secondary part — QR only (the remainder row).
  int32_t SecondaryRowOf(int32_t id) const {
    return static_cast<int32_t>(qr_num_q_ + static_cast<size_t>(id) % qr_rem_);
  }

  /// True when ids decompose into two backing parts (QR).
  bool HasSecondary() const { return kind_ == EmbeddingBackendKind::kQR; }

  // --- Prepared (pre-deduped) gradient scatter -------------------------
  //
  // The table's one gradient store. Every model's training step
  // (DESIGN.md) dedupes each batch's BACKING rows during PrepareBatch,
  // before any weights are read. The backward pass then scatters into a
  // flat slot-addressed buffer sized by the unique-row count — no
  // hashing, no per-new-row allocation — and the optimizer walks
  // (unique_rows, slots) directly, updating each touched backing row
  // exactly once from its summed gradient (per-row updates are
  // independent, so slot order is immaterial). Buffer capacity is
  // retained across steps, so steady-state steps allocate nothing.

  /// Starts a prepared scatter over `count` unique backing rows.
  /// `unique_rows` must stay valid until the matching
  /// SparseAdamStepPrepared/ClearPreparedGrads. Zeroes (and if needed
  /// grows) the slot buffer.
  void BeginPreparedScatter(const int32_t* unique_rows, size_t count) {
    prep_rows_ = unique_rows;
    prep_count_ = count;
    prep_grads_.assign(count * dim_, 0.0f);
  }

  // The Accumulate* calls below add into slot `slot` — the dedup index
  // assigned to the target backing row during PrepareBatch. Concurrent
  // calls are safe iff they target rows of distinct shards (slots of
  // different rows never alias).

  /// Fused scale-and-accumulate: slot += grad * scale. Used by continuous
  /// feature tables, whose gradient is d_out scaled by the feature value.
  void AccumulatePreparedGradScaled(size_t slot, const float* grad,
                                    float scale);

  /// Scatters the PRIMARY-part gradient of `id` into `slot`. Dense,
  /// tiered, and QR-sum: plain accumulate; QR-mul: the product rule adds
  /// grad ⊙ R-row(id) (weights are frozen during a backward pass, so the
  /// read is race-free).
  void AccumulatePreparedGradPrimary(size_t slot, int32_t id,
                                     const float* grad);

  /// Scatters the SECONDARY-part gradient of `id` (QR only) into `slot`:
  /// plain accumulate for sum-combine, grad ⊙ Q-row(id) for mul.
  void AccumulatePreparedGradSecondary(size_t slot, int32_t id,
                                       const float* grad);

  /// Sparse-Adam step over the prepared slots (see the file comment),
  /// then ends the prepared scatter keeping capacity.
  void SparseAdamStepPrepared(const AdamConfig& config = {});

  /// Ends a prepared scatter without updating (keeps capacity).
  void ClearPreparedGrads() {
    prep_rows_ = nullptr;
    prep_count_ = 0;
    prep_grads_.clear();
  }

  /// Prepared gradient slot (length dim) for `slot` (tests/diagnostics).
  const float* PreparedGrad(size_t slot) const {
    CHECK_LT(slot, prep_count_);
    return prep_grads_.data() + slot * dim_;
  }

  /// Raw backing value tensor (checkpoint snapshot/restore). Shape
  /// [BackingRows() × dim] — backend-dependent, so checkpoints only load
  /// back into a table constructed with the same backend config.
  Tensor& mutable_values() { return value_; }
  const Tensor& values() const { return value_; }

  size_t vocab_size() const { return vocab_size_; }
  size_t dim() const { return dim_; }
  const std::string& name() const { return name_; }
  EmbeddingBackendKind backend_kind() const { return kind_; }
  QrCombine qr_combine() const { return qr_combine_; }
  size_t qr_rem() const { return qr_rem_; }
  size_t qr_num_q() const { return qr_num_q_; }
  size_t tier_hot_rows() const { return tier_hot_rows_; }
  size_t tier_buckets() const { return tier_buckets_; }
  /// Rows actually stored (== vocab_size only for dense).
  size_t BackingRows() const { return backing_rows_; }
  /// Trainable parameter count: backing rows × dim — the honest number
  /// for parameter/AUC trade-off curves.
  size_t ParamCount() const { return backing_rows_ * dim_; }
  /// Non-trainable mapping overhead (tiered remap) in bytes.
  size_t AuxBytes() const {
    return remap_ ? remap_->size() * sizeof(int32_t) : 0;
  }
  /// Human-readable backend summary, e.g. "qr_mul(q=64,r=63)".
  std::string BackendDesc() const;
  /// Shared logical→backing remap (tiered; null otherwise). Shared with
  /// quantized snapshots so the mapping is never duplicated.
  std::shared_ptr<const std::vector<int32_t>> remap() const { return remap_; }

  float lr = 1e-3f;
  float l2 = 0.0f;

  /// Bounds check with an actionable failure message (table name,
  /// backend, offending id, vocab size). `op` names the calling
  /// operation. Public so id-prep code can validate before mapping.
  void CheckId(int32_t id, const char* op) const {
    CHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_)
        << "embedding table '" << name_ << "' (" << BackendDesc()
        << ", vocab " << vocab_size_ << "): " << op << " id " << id
        << " is outside [0, " << vocab_size_
        << ") — id from a foreign/stale encoder?";
  }

 private:
  const float* BackingRowPtr(int32_t row) const {
    return value_.data() + static_cast<size_t>(row) * dim_;
  }
  // dst = Q[id / r] ∘ R[id % r], the QR backend's row of `id`.
  void ComposeQrRow(int32_t id, float* dst) const;

  std::string name_;
  size_t vocab_size_;
  size_t dim_;
  EmbeddingBackendKind kind_ = EmbeddingBackendKind::kDense;
  QrCombine qr_combine_ = QrCombine::kSum;
  size_t qr_num_q_ = 0;
  size_t qr_rem_ = 1;
  size_t tier_hot_rows_ = 0;
  size_t tier_buckets_ = 0;
  size_t backing_rows_ = 0;
  std::shared_ptr<const std::vector<int32_t>> remap_;  // tiered only
  Tensor value_;
  Tensor m_;
  Tensor v_;
  int64_t step_ = 0;

  // Prepared-scatter state (see BeginPreparedScatter). The row list is
  // owned by the caller's PreparedBatch; only the slot buffer lives here.
  const int32_t* prep_rows_ = nullptr;
  size_t prep_count_ = 0;
  std::vector<float> prep_grads_;
};

}  // namespace optinter
