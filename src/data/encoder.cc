#include "data/encoder.h"

#include "data/fitted_encoder.h"

namespace optinter {

Result<EncodedDataset> EncodeDataset(const RawDataset& raw,
                                     const std::vector<size_t>& fit_rows,
                                     const EncoderOptions& options) {
  if (raw.num_rows == 0) {
    return Status::Invalid("cannot encode an empty dataset");
  }
  if (fit_rows.empty()) {
    return Status::Invalid("fit_rows must be non-empty");
  }
  MaterializedRowSource source(&raw, &fit_rows);
  OPTINTER_ASSIGN_OR_RETURN(
      const FittedEncoder encoder,
      FittedEncoder::Fit(&source, fit_rows.size(), options));
  return encoder.Transform(raw);
}

}  // namespace optinter
