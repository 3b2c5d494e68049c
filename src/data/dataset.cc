#include "data/dataset.h"

#include <cstring>

namespace optinter {

Status RawDataset::Validate() const {
  if (cat_values.size() != num_rows * schema.num_categorical() ||
      cont_values.size() != num_rows * schema.num_continuous()) {
    return Status::Invalid("value count does not match num_rows");
  }
  if (labels.size() != num_rows) {
    return Status::Invalid("label count does not match num_rows");
  }
  return Status::OK();
}

Status MaterializedRowSource::Restart() {
  next_ = 0;
  return raw_->Validate();
}

Status MaterializedRowSource::NextRow(int64_t* cat, float* cont,
                                      float* label) {
  if (next_ >= num_rows()) {
    return Status::OutOfRange("row source exhausted");
  }
  const size_t row = rows_ != nullptr ? (*rows_)[next_] : next_;
  if (row >= raw_->num_rows) {
    return Status::OutOfRange("row index out of range");
  }
  const size_t num_cat = raw_->schema.num_categorical();
  const size_t num_cont = raw_->schema.num_continuous();
  std::memcpy(cat, raw_->cat_values.data() + row * num_cat,
              num_cat * sizeof(int64_t));
  if (num_cont > 0) {
    std::memcpy(cont, raw_->cont_values.data() + row * num_cont,
                num_cont * sizeof(float));
  }
  *label = raw_->labels[row];
  ++next_;
  return Status::OK();
}

size_t EncodedDataset::TotalOrigVocab() const {
  size_t total = 0;
  for (size_t v : cat_vocab_sizes) total += v;
  return total;
}

size_t EncodedDataset::TotalCrossVocab() const {
  size_t total = 0;
  for (size_t v : cross_vocab_sizes) total += v;
  return total;
}

double EncodedDataset::PositiveRatio() const {
  if (labels.empty()) return 0.0;
  double pos = 0.0;
  for (float y : labels) pos += y;
  return pos / static_cast<double>(labels.size());
}

}  // namespace optinter
