// Per-table embedding-backend resolution shared by the embedding layers
// (FeatureEmbedding / CrossEmbedding, pairs and triples).
//
// A layer receives ONE backend policy for all its tables; each table then
// resolves it against its own vocab (min-vocab dense fallback, the
// OPTINTER_EMBED_BACKEND parity override) and — for tiered tables — builds
// its tier plan from the best available frequency source:
//
//   1. explicit policy.tier_hot_ids (unit tests, hand-tuned plans),
//   2. the dataset's per-field hot-id metadata (fitted by
//      FittedEncoder::Fit — exact ranked counts, or Misra-Gries ids in
//      hashed mode — and attached by Transform or carried through the
//      shard MANIFEST; see DESIGN.md §12),
//   3. nothing — EmbeddingTable falls back to the {1..K} hot set, which
//      matches the hashed encoder's id layout exactly.
//
// There is deliberately NO "scan the in-RAM rows" source: the tier plan
// must be a function of the dataset's metadata alone so that a model built
// from a metadata-only streaming dataset and one built from the same data
// fully in RAM resolve identical plans (the streamed-vs-RAM bitwise
// determinism contract, tests/concurrency_test.cc).

#pragma once

#include <vector>

#include "data/dataset.h"
#include "nn/embedding.h"

namespace optinter {

/// Resolves `policy` for one table of `vocab` ids. `hot_meta[field]` is
/// the dataset's optional frequency-ranked id list for this table (empty
/// or absent = use the table's {1..K} fallback).
inline EmbeddingBackendConfig ResolveTableBackend(
    const EmbeddingBackendConfig& policy, size_t vocab,
    const std::vector<std::vector<int32_t>>& hot_meta, size_t field) {
  EmbeddingBackendConfig cfg = ResolveBackendForVocab(policy, vocab);
  if (cfg.kind == EmbeddingBackendKind::kTiered && cfg.tier_hot_ids.empty() &&
      field < hot_meta.size()) {
    cfg.tier_hot_ids = hot_meta[field];
  }
  return cfg;
}

}  // namespace optinter
