#include "synth/prepare.h"

namespace optinter {

PreparedDataset PrepareFromConfig(const SynthConfig& config,
                                  const PrepareOptions& options) {
  PreparedDataset out;
  out.config = config;
  RawDataset raw = GenerateSynthetic(out.config);
  Rng rng(out.config.seed ^ 0x5917715ULL);
  out.splits = MakeSplits(raw.num_rows, options.train_frac,
                          options.val_frac, &rng);
  auto encoded = EncodeDataset(raw, out.splits.train, options.encoder);
  CHECK(encoded.ok()) << encoded.status().ToString();
  out.data = std::move(encoded).value();
  return out;
}

Result<PreparedDataset> PrepareProfile(const std::string& name,
                                       const PrepareOptions& options) {
  auto config = GetProfile(name);
  if (!config.ok()) return config.status();
  SynthConfig cfg = std::move(config).value();
  if (options.rows_scale != 1.0) ScaleRows(&cfg, options.rows_scale);
  return PrepareFromConfig(cfg, options);
}

}  // namespace optinter
