// Production-flavoured walkthrough: load a CSV click log, encode it,
// run the OptInter pipeline, persist the searched architecture and the
// re-trained model, then reload everything into a PredictServer (the
// low-latency serving layer) and verify the served predictions match —
// including across a live hot-swap.
//
// Generates its own demo CSV so the example is self-contained:
//   ./build/examples/train_save_serve [--rows=8000]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>

#include "common/flags.h"
#include "common/rng.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "data/csv_loader.h"
#include "data/fitted_encoder.h"
#include "io/serialize.h"
#include "serve/request.h"
#include "serve/server.h"

using namespace optinter;

namespace {

// Writes a synthetic click log in CSV form: three categorical fields and
// one continuous, with a planted (site, device) interaction.
std::string WriteDemoCsv(size_t rows, uint64_t seed) {
  const std::string path = "/tmp/optinter_demo_clicks.csv";
  std::ofstream out(path);
  out << "site,device,slot,hour,label\n";
  Rng rng(seed);
  const char* sites[] = {"news", "video", "shop", "mail", "maps"};
  const char* devices[] = {"phone", "tablet", "desktop"};
  const char* slots[] = {"top", "side", "feed", "footer"};
  for (size_t r = 0; r < rows; ++r) {
    const size_t s = rng.UniformInt(5);
    const size_t d = rng.UniformInt(3);
    const size_t sl = rng.UniformInt(4);
    const double hour = rng.Uniform(0, 24);
    // Planted interaction: some (site, device) combos click far more.
    double logit = -1.2 + 0.05 * (hour > 18.0 ? 1.0 : -1.0);
    logit += ((s * 3 + d) % 4 == 0) ? 1.4 : -0.4;
    const bool y = rng.Bernoulli(1.0 / (1.0 + std::exp(-logit)));
    out << sites[s] << "," << devices[d] << "," << slots[sl] << "," << hour
        << "," << (y ? 1 : 0) << "\n";
  }
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt("rows", 8000, "demo CSV rows");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) return st.code() == StatusCode::kFailedPrecondition ? 0 : 1;

  // 1. Load the CSV.
  const std::string csv =
      WriteDemoCsv(static_cast<size_t>(flags.GetInt("rows")), 42);
  DatasetSchema schema({{"site", FieldType::kCategorical},
                        {"device", FieldType::kCategorical},
                        {"slot", FieldType::kCategorical},
                        {"hour", FieldType::kContinuous}});
  auto raw = LoadCsvDataset(csv, schema);
  CHECK(raw.ok()) << raw.status().ToString();
  std::printf("loaded %zu rows from %s\n", raw->num_rows, csv.c_str());

  // 2. Fit a reusable encoder on the train rows (read through a row
  // source restricted to them) and transform the whole log.
  Rng rng(7);
  Splits splits = MakeSplits(raw->num_rows, 0.7, 0.1, &rng);
  EncoderOptions eopts;
  eopts.cat_min_count = 2;
  eopts.cross_min_count = 2;
  MaterializedRowSource train_rows(&*raw, &splits.train);
  auto encoder =
      FittedEncoder::Fit(&train_rows, splits.train.size(), eopts);
  CHECK(encoder.ok()) << encoder.status().ToString();
  auto enc = encoder->Transform(*raw);
  CHECK(enc.ok()) << enc.status().ToString();
  EncodedDataset data = std::move(enc).value();

  // 3. Search + re-train.
  HyperParams hp = DefaultHyperParams("tiny");
  hp.epochs = 4;
  hp.seed = 7;
  SearchOptions sopts;
  sopts.search_epochs = 3;
  TrainOptions topts;
  topts.epochs = hp.epochs;
  topts.batch_size = hp.batch_size;
  topts.seed = hp.seed;
  SearchResult search = RunSearchStage(data, splits, hp, sopts);
  FixedArchModel model(data, search.arch, hp);
  TrainSummary summary = TrainModel(&model, data, splits, topts);
  std::printf("trained OptInter %s: test AUC %.4f, logloss %.4f\n",
              ArchCountsToString(CountArchitecture(search.arch)).c_str(),
              summary.final_test.auc, summary.final_test.logloss);

  // 4. Persist the full deployment artifact set: encoder (so serving
  // ids line up with the embedding tables), architecture, and weights.
  const std::string enc_path = "/tmp/optinter_demo.encoder";
  const std::string arch_path = "/tmp/optinter_demo.arch";
  const std::string ckpt_path = "/tmp/optinter_demo.ckpt";
  CHECK_OK(encoder->Save(enc_path));
  CHECK_OK(SaveArchitecture(search.arch, arch_path));
  CHECK_OK(SaveModel(&model, ckpt_path));
  std::printf("saved %s, %s and %s\n", enc_path.c_str(),
              arch_path.c_str(), ckpt_path.c_str());

  // 5. Serve: reload all three artifacts and stand up a PredictServer.
  // Requests arrive as encoded PredictRequests and flow through either
  // the adaptive micro-batcher (Submit → future) or synchronous batch-1
  // scoring (PredictNow); both pin the live model snapshot.
  auto served_encoder = FittedEncoder::Load(enc_path);
  CHECK(served_encoder.ok()) << served_encoder.status().ToString();
  auto served_data = served_encoder->Transform(*raw);
  CHECK(served_data.ok()) << served_data.status().ToString();
  auto arch = LoadArchitecture(arch_path);
  CHECK(arch.ok()) << arch.status().ToString();
  auto served = std::make_shared<FixedArchModel>(*served_data, *arch, hp);
  CHECK_OK(LoadModel(served.get(), ckpt_path));

  serve::PredictServer server(*served_data);
  CHECK_OK(server.Deploy(served));
  std::printf("deployed model generation %llu\n",
              static_cast<unsigned long long>(server.DeployedVersion()));

  const size_t n_demo = std::min<size_t>(8, splits.test.size());
  std::printf("\nrow  trained  PredictNow  Submit\n");
  bool all_match = true;
  for (size_t k = 0; k < n_demo; ++k) {
    const size_t row = splits.test[k];
    Batch b;
    b.data = &data;
    b.rows = &row;
    b.size = 1;
    std::vector<float> fresh;
    ForwardContext ctx;
    model.Predict(b, &fresh, &ctx);

    const serve::PredictRequest req =
        serve::RequestFromRow(*served_data, row);
    auto now = server.PredictNow(req);
    CHECK(now.ok()) << now.status().ToString();
    auto fut = server.Submit(req);
    CHECK(fut.ok()) << fut.status().ToString();
    const float batched = fut->get();
    std::printf("%3zu  %.5f  %.5f  %.5f\n", row, fresh[0], *now, batched);
    // Both serving paths are bit-identical to the trained model: a row's
    // arithmetic does not depend on the batch it is scored in, and the
    // published model's packed MLP weights hold the same values.
    all_match &= fresh[0] == *now;
    all_match &= batched == fresh[0];
  }
  std::printf("served predictions %s the trained model's.\n",
              all_match ? "match" : "DIVERGE from");

  // 6. Hot-swap: publish a freshly-restored generation while the server
  // is live. In-flight requests keep the old snapshot; new ones see the
  // new generation — and since it restores the same checkpoint, its
  // predictions are bitwise unchanged.
  CHECK_OK(server.DeployCheckpoint(
      [&]() -> std::unique_ptr<CtrModel> {
        return std::make_unique<FixedArchModel>(*served_data, *arch, hp);
      },
      ckpt_path));
  std::printf("hot-swapped to generation %llu\n",
              static_cast<unsigned long long>(server.DeployedVersion()));
  {
    const size_t row = splits.test[0];
    Batch b;
    b.data = &data;
    b.rows = &row;
    b.size = 1;
    std::vector<float> fresh;
    ForwardContext ctx;
    model.Predict(b, &fresh, &ctx);
    const serve::PredictRequest req =
        serve::RequestFromRow(*served_data, row);
    auto now = server.PredictNow(req);
    CHECK(now.ok()) << now.status().ToString();
    auto fut = server.Submit(req);
    CHECK(fut.ok()) << fut.status().ToString();
    all_match &= fresh[0] == *now;
    all_match &= fresh[0] == fut->get();
  }
  std::printf("post-swap predictions %s.\n",
              all_match ? "still match" : "DIVERGE");
  return all_match ? 0 : 1;
}
