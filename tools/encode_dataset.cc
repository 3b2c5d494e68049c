// One-shot dataset encoder: converts a row source (synthetic profile,
// CSV file, or libsvm file) into a sharded fixed-width binary dataset
// directory that StreamingReader can mmap (data/shard_format.h).
//
// Synthetic profiles stream: rows are regenerated from the RNG on every
// fitting/encoding pass, so even a 50M-row encode holds one row plus the
// vocabulary state (or the hash encoder's bounded tables). CSV and libsvm
// inputs are materialized through their loaders first and then streamed
// from RAM — a v1 limitation; the shard directory they produce is
// identical either way.
//
// Examples (one command each):
//
//   encode_dataset --out=/data/criteo50m --profile=criteo_like
//       --rows-scale=1000 --hashed
//   encode_dataset --out=/data/mine --source=csv --path=logs.csv
//       --cat-cols=site,device --cont-cols=price --build-cross

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/csv_loader.h"
#include "data/libsvm_loader.h"
#include "data/stream_encode.h"
#include "synth/profiles.h"
#include "synth/stream_source.h"

namespace optinter {
namespace {

std::vector<std::string> SplitNonEmpty(const std::string& s, char delim) {
  std::vector<std::string> out;
  for (const std::string& part : Split(s, delim)) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

Result<DatasetSchema> CsvSchema(const std::string& cat_cols,
                                const std::string& cont_cols) {
  std::vector<FieldSpec> fields;
  for (const std::string& name : SplitNonEmpty(cat_cols, ',')) {
    fields.push_back({name, FieldType::kCategorical});
  }
  for (const std::string& name : SplitNonEmpty(cont_cols, ',')) {
    fields.push_back({name, FieldType::kContinuous});
  }
  if (fields.empty()) {
    return Status::Invalid(
        "--source=csv needs --cat-cols and/or --cont-cols");
  }
  return DatasetSchema(std::move(fields));
}

/// Parses --libsvm-fields: comma-separated name:kind:begin:end entries,
/// kind in {cat, cont}, e.g. "site:cat:0:1000,price:cont:1000:1001".
Result<std::vector<LibsvmFieldSpec>> ParseLibsvmFields(
    const std::string& spec) {
  std::vector<LibsvmFieldSpec> fields;
  for (const std::string& entry : SplitNonEmpty(spec, ',')) {
    const std::vector<std::string> parts = Split(entry, ':');
    if (parts.size() != 4) {
      return Status::Invalid("bad --libsvm-fields entry '" + entry +
                             "' (want name:cat|cont:begin:end)");
    }
    LibsvmFieldSpec f;
    f.name = parts[0];
    if (parts[1] == "cat") {
      f.type = FieldType::kCategorical;
    } else if (parts[1] == "cont") {
      f.type = FieldType::kContinuous;
    } else {
      return Status::Invalid("bad field kind '" + parts[1] +
                             "' in --libsvm-fields (want cat or cont)");
    }
    char* end = nullptr;
    f.begin = std::strtoull(parts[2].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::Invalid("bad begin index in '" + entry + "'");
    }
    f.end = std::strtoull(parts[3].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || f.end <= f.begin) {
      return Status::Invalid("bad end index in '" + entry + "'");
    }
    fields.push_back(std::move(f));
  }
  if (fields.empty()) {
    return Status::Invalid("--source=libsvm needs --libsvm-fields");
  }
  return fields;
}

Status Run(const FlagParser& flags) {
  const std::string out_dir = flags.GetString("out");
  if (out_dir.empty()) return Status::Invalid("--out is required");
  // Create the output directory if needed (one level; parents must exist).
  if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create output directory '" + out_dir +
                           "'");
  }

  StreamEncodeOptions options;
  options.cat_min_count =
      static_cast<size_t>(flags.GetInt("cat-min-count"));
  options.cross_min_count =
      static_cast<size_t>(flags.GetInt("cross-min-count"));
  options.fit_fraction = flags.GetDouble("fit-fraction");
  options.build_cross = flags.GetBool("build-cross");
  options.rows_per_shard =
      static_cast<size_t>(flags.GetInt("rows-per-shard"));
  options.hashed = flags.GetBool("hashed");
  options.hash_hot_values = static_cast<size_t>(flags.GetInt("hash-hot"));
  options.hash_buckets = static_cast<size_t>(flags.GetInt("hash-buckets"));
  options.freq_stats_topk =
      static_cast<size_t>(flags.GetInt("freq-topk"));

  const std::string source = flags.GetString("source");
  Stopwatch timer;
  StreamEncodeStats stats;
  if (source == "synth") {
    OPTINTER_ASSIGN_OR_RETURN(SynthConfig config,
                              GetProfile(flags.GetString("profile")));
    ScaleRows(&config, flags.GetDouble("rows-scale"));
    LOG_INFO() << "generating " << config.num_rows << " rows of profile '"
               << flags.GetString("profile") << "' (streamed)";
    SynthRowSource rows(config);
    OPTINTER_ASSIGN_OR_RETURN(
        stats, StreamEncodeToShards(&rows, out_dir, options));
  } else if (source == "csv") {
    CsvOptions csv;
    csv.label_column = flags.GetString("label-column");
    const std::string delim = flags.GetString("delimiter");
    if (delim.size() != 1) {
      return Status::Invalid("--delimiter must be a single character");
    }
    csv.delimiter = delim[0];
    OPTINTER_ASSIGN_OR_RETURN(
        const DatasetSchema schema,
        CsvSchema(flags.GetString("cat-cols"), flags.GetString("cont-cols")));
    OPTINTER_ASSIGN_OR_RETURN(
        const RawDataset raw,
        LoadCsvDataset(flags.GetString("path"), schema, csv));
    MaterializedRowSource rows(&raw);
    OPTINTER_ASSIGN_OR_RETURN(
        stats, StreamEncodeToShards(&rows, out_dir, options));
  } else if (source == "libsvm") {
    OPTINTER_ASSIGN_OR_RETURN(
        const std::vector<LibsvmFieldSpec> fields,
        ParseLibsvmFields(flags.GetString("libsvm-fields")));
    OPTINTER_ASSIGN_OR_RETURN(
        const RawDataset raw,
        LoadLibsvmDataset(flags.GetString("path"), fields));
    MaterializedRowSource rows(&raw);
    OPTINTER_ASSIGN_OR_RETURN(
        stats, StreamEncodeToShards(&rows, out_dir, options));
  } else {
    return Status::Invalid("unknown --source '" + source +
                           "' (want synth, csv, or libsvm)");
  }

  LOG_INFO() << "encoded " << stats.rows << " rows (" << stats.fit_rows
             << " fit rows) into '" << out_dir << "' in "
             << timer.Elapsed() << "s";
  if (options.hashed) {
    LOG_INFO() << "hash encoder: " << stats.cat_hash.hashed_rows
               << " bucketed cat values, " << stats.cat_hash.hot_rows
               << " hot, " << stats.cat_hash.collision_rows
               << " collisions; cross: " << stats.cross_hash.hashed_rows
               << " bucketed, " << stats.cross_hash.collision_rows
               << " collisions";
  }
  return Status::OK();
}

}  // namespace
}  // namespace optinter

int main(int argc, char** argv) {
  using namespace optinter;
  FlagParser flags;
  flags.AddString("out", "", "output shard directory (required)");
  flags.AddString("source", "synth", "input kind: synth, csv, or libsvm");
  flags.AddString("profile", "criteo_like",
                  "synth: profile name (see synth/profiles.h)");
  flags.AddDouble("rows-scale", 1.0, "synth: row-count multiplier");
  flags.AddString("path", "", "csv/libsvm: input file path");
  flags.AddString("cat-cols", "", "csv: comma-separated categorical columns");
  flags.AddString("cont-cols", "", "csv: comma-separated continuous columns");
  flags.AddString("label-column", "label", "csv: label column name");
  flags.AddString("delimiter", ",", "csv: field delimiter");
  flags.AddString("libsvm-fields", "",
                  "libsvm: name:cat|cont:begin:end, comma-separated");
  flags.AddDouble("fit-fraction", 0.7,
                  "prefix fraction used to fit vocabularies");
  flags.AddBool("build-cross", false,
                "also fit + materialize cross-product features");
  flags.AddInt("rows-per-shard", 1 << 17, "rows per shard file");
  flags.AddInt("cat-min-count", 4, "min count for a categorical value");
  flags.AddInt("cross-min-count", 10, "min count for a cross value");
  flags.AddBool("hashed", false,
                "frequency-capped hash encoding for unbounded vocabularies");
  flags.AddInt("hash-hot", 1024, "hashed: dedicated hot ids per field");
  flags.AddInt("hash-buckets", 1 << 16, "hashed: shared tail buckets");
  flags.AddInt("freq-topk", 128,
               "per-field hot ids recorded in the manifest for tiered "
               "embedding backends (0 disables)");
  const Status flag_status = flags.Parse(argc, argv);
  if (!flag_status.ok()) {
    // --help surfaces as FailedPrecondition after printing usage.
    if (flag_status.code() == StatusCode::kFailedPrecondition) return 0;
    std::fprintf(stderr, "%s\n", flag_status.ToString().c_str());
    return 2;
  }
  const Status status = Run(flags);
  if (!status.ok()) {
    std::fprintf(stderr, "encode_dataset: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
