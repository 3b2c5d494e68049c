// One-call dataset preparation used by benches and examples:
// generate profile → split → fit on the train split and encode (with
// cross features unless encoder.build_cross is off).

#pragma once

#include <string>

#include "common/status.h"
#include "data/batch.h"
#include "data/encoder.h"
#include "synth/profiles.h"

namespace optinter {

/// A fully-prepared experiment dataset.
struct PreparedDataset {
  SynthConfig config;
  EncodedDataset data;
  Splits splits;
};

/// Options for PrepareProfile.
struct PrepareOptions {
  /// Multiplier on the profile's row count (benches' quick/full knob).
  double rows_scale = 1.0;
  /// Fractions (paper: 80% train+val / 20% test; val carved from train).
  double train_frac = 0.7;
  double val_frac = 0.1;
  EncoderOptions encoder;
};

/// Generates + encodes the named profile ("criteo_like", ..., "tiny").
Result<PreparedDataset> PrepareProfile(const std::string& name,
                                       const PrepareOptions& options = {});

/// Same, starting from an explicit generator config.
PreparedDataset PrepareFromConfig(const SynthConfig& config,
                                  const PrepareOptions& options = {});

}  // namespace optinter
