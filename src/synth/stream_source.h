// RowSource over the synthetic generator: rows are re-drawn from the RNG
// stream on every pass instead of being materialized, so a 50M-row
// encode's working set is the label bitmap plus one row.
//
// Labels need the whole logit vector (the bias is calibrated globally),
// so construction runs one generation pass that keeps only the logits,
// calibrates the bias, draws the labels, and drops the logits — after
// which each encode pass replays the feature stream via
// synth_internal::RowStream. Replay is bit-identical to GenerateSynthetic
// by construction: both consume the exact same draw sequence.

#pragma once

#include <vector>

#include "data/dataset.h"
#include "synth/generator.h"

namespace optinter {

class SynthRowSource : public RowSource {
 public:
  /// Runs the label-calibration pass (one full stream generation; O(rows)
  /// time, 8 bytes/row transient + 1 bit/row retained).
  explicit SynthRowSource(const SynthConfig& config);

  const DatasetSchema& schema() const override { return schema_; }
  size_t num_rows() const override { return config_.num_rows; }
  Status Restart() override;
  Status NextRow(int64_t* cat, float* cont, float* label) override;

 private:
  SynthConfig config_;
  DatasetSchema schema_;
  synth_internal::RowStream stream_;
  std::vector<uint8_t> label_bits_;  // 1 bit per row
  size_t next_ = 0;
};

}  // namespace optinter
