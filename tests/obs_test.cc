// Tests for the observability layer: JSON value round-trips, the metrics
// registry under concurrent pool increments, trace-span nesting and merge
// determinism, run-report serialization, search-dynamics capture, and the
// logging satellites (env-level parsing, line prefix format).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/search_dynamics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "synth/prepare.h"
#include "train/trainer.h"

namespace optinter {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, SerializeScalars) {
  EXPECT_EQ(obs::JsonValue::Null().Serialize(), "null");
  EXPECT_EQ(obs::JsonValue::Bool(true).Serialize(), "true");
  EXPECT_EQ(obs::JsonValue::Bool(false).Serialize(), "false");
  EXPECT_EQ(obs::JsonValue::Int(-42).Serialize(), "-42");
  EXPECT_EQ(obs::JsonValue::Uint(7).Serialize(), "7");
  EXPECT_EQ(obs::JsonValue::Str("hi").Serialize(), "\"hi\"");
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  const std::string s = obs::JsonValue::Str("a\"b\\c\n\t\x01").Serialize();
  EXPECT_EQ(s, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  obs::JsonValue obj = obs::JsonValue::MakeObject();
  obj.Set("zebra", obs::JsonValue::Int(1));
  obj.Set("alpha", obs::JsonValue::Int(2));
  EXPECT_EQ(obj.Serialize(), "{\"zebra\":1,\"alpha\":2}");
  // Re-setting a key keeps its position.
  obj.Set("zebra", obs::JsonValue::Int(3));
  EXPECT_EQ(obj.Serialize(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(JsonTest, ParseRoundTrip) {
  obs::JsonValue obj = obs::JsonValue::MakeObject();
  obj.Set("name", obs::JsonValue::Str("run \"x\"\n"));
  obj.Set("n", obs::JsonValue::Int(-5));
  obj.Set("pi", obs::JsonValue::Double(3.25));
  obj.Set("ok", obs::JsonValue::Bool(true));
  obj.Set("nothing", obs::JsonValue::Null());
  obs::JsonValue arr = obs::JsonValue::MakeArray();
  arr.Push(obs::JsonValue::Int(1));
  arr.Push(obs::JsonValue::Str("two"));
  obj.Set("items", std::move(arr));

  for (const int indent : {-1, 0, 2}) {
    const std::string text = obj.Serialize(indent);
    obs::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::Parse(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed, obj) << text;
  }
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  obs::JsonValue out;
  std::string error;
  EXPECT_FALSE(obs::JsonValue::Parse("{", &out, &error));
  EXPECT_FALSE(obs::JsonValue::Parse("[1,]", &out, &error));
  EXPECT_FALSE(obs::JsonValue::Parse("\"unterminated", &out, &error));
  EXPECT_FALSE(obs::JsonValue::Parse("1 trailing", &out, &error));
  EXPECT_FALSE(obs::JsonValue::Parse("", &out, &error));
}

TEST(JsonTest, ParseUnicodeEscapes) {
  obs::JsonValue out;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse("\"\\u0041\\u00e9\"", &out, &error))
      << error;
  EXPECT_EQ(out.string_value(), "A\xc3\xa9");
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, CounterAccumulatesAcrossConcurrentPoolTasks) {
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  c->Reset();
  ThreadPool pool(4);
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 1000;
  for (size_t t = 0; t < kTasks; ++t) {
    pool.Submit([c] {
      for (size_t i = 0; i < kPerTask; ++i) c->Add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(c->Value(), kTasks * kPerTask);
}

TEST(RegistryTest, GetReturnsSamePointerForSameName) {
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("test.same"), reg.GetCounter("test.same"));
  EXPECT_EQ(reg.GetGauge("test.same_gauge"),
            reg.GetGauge("test.same_gauge"));
  EXPECT_EQ(reg.GetHistogram("test.same_hist", {1.0}),
            reg.GetHistogram("test.same_hist", {1.0}));
}

TEST(RegistryDeathTest, HistogramBoundsMismatchAborts) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetHistogram("test.bounds_mismatch", {1.0, 2.0});
  EXPECT_DEATH(reg.GetHistogram("test.bounds_mismatch", {1.0, 3.0}),
               "different upper_bounds");
}

TEST(RegistryTest, HistogramBucketEdges) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "test.bucket_edges", {1.0, 2.0, 4.0});
  h->Reset();
  // Bucket i counts bounds[i-1] < v <= bounds[i]; the upper bound is
  // inclusive.
  h->Observe(0.5);  // bucket 0
  h->Observe(1.0);  // bucket 0 (inclusive upper edge)
  h->Observe(1.5);  // bucket 1
  h->Observe(2.0);  // bucket 1
  h->Observe(4.0);  // bucket 2
  h->Observe(5.0);  // overflow
  ASSERT_EQ(h->num_buckets(), 4u);
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(3), 1u);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
}

TEST(RegistryTest, HistogramQuantileInterpolates) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "test.quantile", {10.0, 20.0, 40.0});
  h->Reset();
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // empty histogram
  // 8 observations in (0, 10], 2 in (10, 20].
  for (int i = 0; i < 8; ++i) h->Observe(5.0);
  for (int i = 0; i < 2; ++i) h->Observe(15.0);
  // p50: rank 5 of 8 in bucket (0, 10] → 10 * 5/8.
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 10.0 * 5.0 / 8.0);
  // p90: rank 9 lands on the first of 2 observations in (10, 20].
  EXPECT_DOUBLE_EQ(h->Quantile(0.9), 10.0 + 10.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 20.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h->Quantile(-1.0), h->Quantile(0.0));
  // Overflow-bucket observations report the last finite bound as a floor.
  h->Reset();
  h->Observe(1000.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 40.0);
}

TEST(RegistryTest, HistogramQuantileEdgeCases) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "test.quantile_edges", {10.0, 20.0});
  // Empty histogram: every quantile is 0.
  h->Reset();
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 0.0);
  // q=0 reports the lower edge of the first non-empty bucket; q=1 its
  // upper edge when all mass sits in one finite bucket.
  h->Observe(15.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 20.0);
  // All mass in the overflow bucket: every quantile is floored at the
  // largest finite bound (the overflow bucket has no upper edge).
  h->Reset();
  for (int i = 0; i < 5; ++i) h->Observe(1e6);
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 20.0);
  EXPECT_EQ(h->count(), 5u);
}

TEST(RegistryTest, GaugeSetAndAdd) {
  obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(1.25);
  EXPECT_DOUBLE_EQ(g->Value(), 3.75);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(RegistryTest, ToJsonContainsRegisteredMetrics) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.json_counter")->Reset();
  reg.GetCounter("test.json_counter")->Add(3);
  obs::Histogram* h = reg.GetHistogram("test.json_hist", {10.0});
  h->Reset();
  h->Observe(4.0);
  const obs::JsonValue snapshot = reg.ToJson();
  const obs::JsonValue* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* c = counters->Find("test.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->int_value(), 3);
  const obs::JsonValue* hists = snapshot.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* hj = hists->Find("test.json_hist");
  ASSERT_NE(hj, nullptr);
  ASSERT_NE(hj->Find("bucket_counts"), nullptr);
  EXPECT_EQ(hj->Find("bucket_counts")->at(0).int_value(), 1);
  EXPECT_EQ(hj->Find("count")->int_value(), 1);
}

TEST(RegistryTest, EnabledToggle) {
  EXPECT_TRUE(obs::Enabled());  // default on (no OPTINTER_OBS in tests)
  obs::SetEnabled(false);
  EXPECT_FALSE(obs::Enabled());
  obs::SetEnabled(true);
  EXPECT_TRUE(obs::Enabled());
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// Child of `p` named `name`, or nullptr.
const obs::SpanProfile* FindChild(const obs::SpanProfile& p,
                                  const std::string& name) {
  for (const obs::SpanProfile& c : p.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(TraceTest, NestedSpansBuildHierarchicalProfile) {
  obs::Tracer::Reset();
  {
    OPTINTER_TRACE_SPAN("outer_a");
    {
      OPTINTER_TRACE_SPAN("inner_b");
    }
    {
      OPTINTER_TRACE_SPAN("inner_b");
    }
    {
      OPTINTER_TRACE_SPAN("inner_c");
    }
  }
  const obs::SpanProfile profile = obs::Tracer::Collect();
  EXPECT_EQ(profile.name, "run");
  const obs::SpanProfile* a = FindChild(profile, "outer_a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 1u);
  const obs::SpanProfile* b = FindChild(*a, "inner_b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 2u);
  const obs::SpanProfile* c = FindChild(*a, "inner_c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->count, 1u);
  // Children must contain the parent's time (parent covers them).
  EXPECT_GE(a->total_ns, b->total_ns + c->total_ns);
}

TEST(TraceTest, CollectIsDeterministicAndSorted) {
  obs::Tracer::Reset();
  {
    OPTINTER_TRACE_SPAN("z_span");
  }
  {
    OPTINTER_TRACE_SPAN("a_span");
  }
  const obs::SpanProfile first = obs::Tracer::Collect();
  const obs::SpanProfile second = obs::Tracer::Collect();
  // Collect is read-only: two collections agree exactly.
  EXPECT_EQ(obs::Tracer::ToJson(first).Serialize(),
            obs::Tracer::ToJson(second).Serialize());
  // Children sorted by name.
  for (size_t i = 1; i < first.children.size(); ++i) {
    EXPECT_LT(first.children[i - 1].name, first.children[i].name);
  }
}

TEST(TraceTest, SpansFromPoolThreadsMergeByName) {
  obs::Tracer::Reset();
  ThreadPool pool(3);
  for (int t = 0; t < 9; ++t) {
    pool.Submit([] { OPTINTER_TRACE_SPAN("pool_span"); });
  }
  pool.Wait();
  const obs::SpanProfile profile = obs::Tracer::Collect();
  const obs::SpanProfile* merged = FindChild(profile, "pool_span");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 9u);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  obs::Tracer::Reset();
  obs::SetEnabled(false);
  {
    OPTINTER_TRACE_SPAN("disabled_span");
  }
  obs::SetEnabled(true);
  const obs::SpanProfile profile = obs::Tracer::Collect();
  const obs::SpanProfile* s = FindChild(profile, "disabled_span");
  // The node may exist from an earlier enabled run in this process, but
  // this span must not have counted.
  if (s != nullptr) {
    EXPECT_EQ(s->count, 0u);
  }
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

TEST(RunReportTest, FileRoundTripContainsAllSections) {
  obs::Tracer::Reset();
  obs::MetricsRegistry::Global().GetCounter("test.report_counter")->Reset();
  obs::MetricsRegistry::Global().GetCounter("test.report_counter")->Add(11);
  {
    OPTINTER_TRACE_SPAN("report_span");
  }

  obs::RunReport report("unit_test_run");
  report.SetMeta("dataset", obs::JsonValue::Str("tiny"));
  obs::JsonValue extra = obs::JsonValue::MakeObject();
  extra.Set("answer", obs::JsonValue::Int(42));
  report.AddSection("extra", std::move(extra));
  report.CaptureMetrics();
  report.CaptureSpans();

  const std::string path =
      (std::filesystem::temp_directory_path() / "optinter_obs_test.json")
          .string();
  std::string error;
  ASSERT_TRUE(report.WriteFile(path, &error)) << error;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue parsed;
  ASSERT_TRUE(obs::JsonValue::Parse(buffer.str(), &parsed, &error)) << error;
  std::filesystem::remove(path);

  ASSERT_NE(parsed.Find("schema_version"), nullptr);
  EXPECT_EQ(parsed.Find("schema_version")->int_value(), 1);
  ASSERT_NE(parsed.Find("run"), nullptr);
  EXPECT_EQ(parsed.Find("run")->Find("name")->string_value(),
            "unit_test_run");
  EXPECT_EQ(parsed.Find("run")->Find("dataset")->string_value(), "tiny");
  EXPECT_EQ(parsed.Find("extra")->Find("answer")->int_value(), 42);
  const obs::JsonValue* metrics = parsed.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("counters")
                ->Find("test.report_counter")
                ->int_value(),
            11);
  const obs::JsonValue* spans = parsed.Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->Find("name")->string_value(), "run");
  bool found_span = false;
  const obs::JsonValue* children = spans->Find("children");
  ASSERT_NE(children, nullptr);
  for (size_t i = 0; i < children->size(); ++i) {
    if (children->at(i).Find("name")->string_value() == "report_span") {
      found_span = true;
      EXPECT_EQ(children->at(i).Find("count")->int_value(), 1);
    }
  }
  EXPECT_TRUE(found_span);
}

TEST(RunReportTest, WriteFileFailsOnBadPath) {
  obs::RunReport report("x");
  std::string error;
  EXPECT_FALSE(
      report.WriteFile("/nonexistent_dir_zz/report.json", &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Search dynamics
// ---------------------------------------------------------------------------

TEST(SearchDynamicsTest, ToJsonSerializesAllFields) {
  obs::SearchEpochDynamics d;
  d.epoch = 2;
  d.temperature = 0.5;
  d.alpha_entropy_per_pair = {1.0, 0.25};
  d.mean_alpha_entropy = 0.625;
  d.min_alpha_entropy = 0.25;
  d.max_alpha_entropy = 1.0;
  d.argmax_counts = {{1, 1, 0}};
  d.argmax_flips = 1;
  obs::SearchDynamics dyn;
  dyn.epochs.push_back(d);
  const obs::JsonValue j = obs::SearchDynamicsToJson(dyn);
  const obs::JsonValue* epochs = j.Find("epochs");
  ASSERT_NE(epochs, nullptr);
  ASSERT_EQ(epochs->size(), 1u);
  const obs::JsonValue& e = epochs->at(0);
  EXPECT_EQ(e.Find("epoch")->int_value(), 2);
  EXPECT_DOUBLE_EQ(e.Find("temperature")->number(), 0.5);
  EXPECT_EQ(e.Find("alpha_entropy_per_pair")->size(), 2u);
  EXPECT_DOUBLE_EQ(e.Find("mean_alpha_entropy")->number(), 0.625);
  EXPECT_EQ(e.Find("argmax_counts")->Find("memorize")->int_value(), 1);
  EXPECT_EQ(e.Find("argmax_counts")->Find("factorize")->int_value(), 1);
  EXPECT_EQ(e.Find("argmax_counts")->Find("naive")->int_value(), 0);
  EXPECT_EQ(e.Find("argmax_flips")->int_value(), 1);
}

TEST(SearchDynamicsTest, PopulatedByShortSearchRun) {
  auto prepared = PrepareProfile("tiny", PrepareOptions());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  HyperParams hp = DefaultHyperParams("tiny");
  SearchOptions sopts;
  sopts.search_epochs = 2;
  const SearchResult result =
      RunSearchStage(prepared->data, prepared->splits, hp, sopts);

  const size_t num_pairs = prepared->data.num_pairs();
  ASSERT_EQ(result.dynamics.epochs.size(), 2u);
  for (size_t i = 0; i < result.dynamics.epochs.size(); ++i) {
    const obs::SearchEpochDynamics& d = result.dynamics.epochs[i];
    EXPECT_EQ(d.epoch, i);
    EXPECT_GT(d.temperature, 0.0);
    EXPECT_EQ(d.alpha_entropy_per_pair.size(), num_pairs);
    // Entropy of a 3-way categorical is within [0, ln 3].
    EXPECT_GE(d.min_alpha_entropy, 0.0);
    EXPECT_LE(d.max_alpha_entropy, std::log(3.0) + 1e-9);
    EXPECT_GE(d.mean_alpha_entropy, d.min_alpha_entropy);
    EXPECT_LE(d.mean_alpha_entropy, d.max_alpha_entropy);
    EXPECT_EQ(d.argmax_counts[0] + d.argmax_counts[1] + d.argmax_counts[2],
              num_pairs);
  }
  // Flips are counted only from the second epoch on.
  EXPECT_EQ(result.dynamics.epochs[0].argmax_flips, 0u);
  EXPECT_LE(result.dynamics.epochs[1].argmax_flips, num_pairs);
}

TEST(SearchDynamicsTest, AlphaFlipEventsSerialize) {
  obs::SearchDynamics dyn;
  dyn.sample_every = 16;
  obs::AlphaFlipEvent ev;
  ev.epoch = 1;
  ev.step = 48;
  ev.pair = 3;
  ev.from = 0;  // memorize
  ev.to = 2;    // naive
  dyn.flip_events.push_back(ev);
  const obs::JsonValue j = obs::SearchDynamicsToJson(dyn);
  EXPECT_EQ(j.Find("alpha_sample_every")->int_value(), 16);
  const obs::JsonValue* flips = j.Find("flip_events");
  ASSERT_NE(flips, nullptr);
  ASSERT_EQ(flips->size(), 1u);
  const obs::JsonValue& f = flips->at(0);
  EXPECT_EQ(f.Find("epoch")->int_value(), 1);
  EXPECT_EQ(f.Find("step")->int_value(), 48);
  EXPECT_EQ(f.Find("pair")->int_value(), 3);
  EXPECT_EQ(f.Find("from")->string_value(), "memorize");
  EXPECT_EQ(f.Find("to")->string_value(), "naive");
  // Sampling off: neither key appears (per-epoch-only reports unchanged).
  obs::SearchDynamics off;
  const obs::JsonValue j_off = obs::SearchDynamicsToJson(off);
  EXPECT_EQ(j_off.Find("alpha_sample_every"), nullptr);
  EXPECT_EQ(j_off.Find("flip_events"), nullptr);
}

TEST(SearchDynamicsTest, WithinEpochSamplingRecordsValidFlips) {
  auto prepared = PrepareProfile("tiny", PrepareOptions());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  HyperParams hp = DefaultHyperParams("tiny");
  SearchOptions sopts;
  sopts.search_epochs = 2;
  sopts.alpha_sample_every = 3;
  const SearchResult result =
      RunSearchStage(prepared->data, prepared->splits, hp, sopts);
  EXPECT_EQ(result.dynamics.sample_every, 3u);
  // Early search epochs at high temperature flip constantly; an empty
  // event list here would mean sampling never ran.
  EXPECT_FALSE(result.dynamics.flip_events.empty());
  const size_t num_pairs = prepared->data.num_pairs();
  for (const obs::AlphaFlipEvent& ev : result.dynamics.flip_events) {
    EXPECT_LT(ev.epoch, sopts.search_epochs);
    EXPECT_GT(ev.step, 0u);
    EXPECT_EQ(ev.step % sopts.alpha_sample_every, 0u);
    EXPECT_LT(ev.pair, num_pairs);
    EXPECT_GE(ev.from, 0);
    EXPECT_LE(ev.from, 2);
    EXPECT_GE(ev.to, 0);
    EXPECT_LE(ev.to, 2);
    EXPECT_NE(ev.from, ev.to);
  }
  // Sampling must not change the search outcome: the same run without
  // sampling lands on the same architecture (observation-only contract).
  SearchOptions plain = sopts;
  plain.alpha_sample_every = 0;
  const SearchResult baseline =
      RunSearchStage(prepared->data, prepared->splits, hp, plain);
  EXPECT_EQ(baseline.arch, result.arch);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// One parsed Prometheus sample line: `name{labels} value`.
struct PromSample {
  std::string name;
  std::string labels;  // raw text between the braces ("" when absent)
  double value = 0.0;
};

/// Minimal exposition-format parser: validates the line grammar the
/// encoder must produce and returns the samples. Fails the test on any
/// line that is neither a comment nor a well-formed sample.
std::vector<PromSample> ParsePrometheusText(const std::string& text) {
  std::vector<PromSample> samples;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << "bad comment line: " << line;
      continue;
    }
    PromSample s;
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos || name_end == 0) {
      ADD_FAILURE() << "bad sample line: " << line;
      continue;
    }
    s.name = line.substr(0, name_end);
    // Metric-name grammar: [a-zA-Z_:][a-zA-Z0-9_:]*
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(s.name[0])) ||
                s.name[0] == '_' || s.name[0] == ':')
        << s.name;
    for (const char c : s.name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad char in metric name: " << s.name;
    }
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      const size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        ADD_FAILURE() << "unclosed labels: " << line;
        continue;
      }
      s.labels = line.substr(name_end + 1, close - name_end - 1);
      value_start = close + 1;
    }
    if (value_start >= line.size() || line[value_start] != ' ') {
      ADD_FAILURE() << "missing value: " << line;
      continue;
    }
    const std::string value_text = line.substr(value_start + 1);
    if (value_text == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else {
      s.value = std::stod(value_text);
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

const PromSample* FindSample(const std::vector<PromSample>& samples,
                             const std::string& name,
                             const std::string& labels = "") {
  for (const PromSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

TEST(PrometheusTest, SanitizeName) {
  EXPECT_EQ(obs::PrometheusSanitizeName("serve.latency_us"),
            "serve_latency_us");
  EXPECT_EQ(obs::PrometheusSanitizeName("train.rows"), "train_rows");
  EXPECT_EQ(obs::PrometheusSanitizeName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::PrometheusSanitizeName("9lives"), "_9lives");
  EXPECT_EQ(obs::PrometheusSanitizeName(""), "_");
  EXPECT_EQ(obs::PrometheusSanitizeName("already_ok:name"),
            "already_ok:name");
}

TEST(PrometheusTest, EscapeLabelValue) {
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("say \"hi\""),
            "say \\\"hi\\\"");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("line\nbreak"),
            "line\\nbreak");
}

TEST(PrometheusTest, RenderFromHandBuiltSnapshot) {
  obs::JsonValue snapshot = obs::JsonValue::MakeObject();
  obs::JsonValue counters = obs::JsonValue::MakeObject();
  counters.Set("serve.requests", obs::JsonValue::Uint(42));
  snapshot.Set("counters", std::move(counters));
  obs::JsonValue gauges = obs::JsonValue::MakeObject();
  gauges.Set("queue.depth", obs::JsonValue::Double(3.5));
  snapshot.Set("gauges", std::move(gauges));
  obs::JsonValue hist = obs::JsonValue::MakeObject();
  obs::JsonValue bounds = obs::JsonValue::MakeArray();
  bounds.Push(obs::JsonValue::Double(10.0));
  bounds.Push(obs::JsonValue::Double(20.0));
  hist.Set("upper_bounds", std::move(bounds));
  obs::JsonValue buckets = obs::JsonValue::MakeArray();
  buckets.Push(obs::JsonValue::Uint(3));  // (0, 10]
  buckets.Push(obs::JsonValue::Uint(2));  // (10, 20]
  buckets.Push(obs::JsonValue::Uint(1));  // overflow
  hist.Set("bucket_counts", std::move(buckets));
  hist.Set("sum", obs::JsonValue::Double(123.5));
  hist.Set("count", obs::JsonValue::Uint(6));
  obs::JsonValue hists = obs::JsonValue::MakeObject();
  hists.Set("serve.latency_us", std::move(hist));
  snapshot.Set("histograms", std::move(hists));

  const std::string text = obs::RenderPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_latency_us histogram"),
            std::string::npos);

  const std::vector<PromSample> samples = ParsePrometheusText(text);
  const PromSample* requests = FindSample(samples, "serve_requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_DOUBLE_EQ(requests->value, 42.0);
  const PromSample* depth = FindSample(samples, "queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, 3.5);

  // Buckets are cumulative, monotone, and +Inf equals _count (the
  // overflow bucket folded in).
  const PromSample* b10 =
      FindSample(samples, "serve_latency_us_bucket", "le=\"10\"");
  const PromSample* b20 =
      FindSample(samples, "serve_latency_us_bucket", "le=\"20\"");
  const PromSample* binf =
      FindSample(samples, "serve_latency_us_bucket", "le=\"+Inf\"");
  ASSERT_NE(b10, nullptr);
  ASSERT_NE(b20, nullptr);
  ASSERT_NE(binf, nullptr);
  EXPECT_DOUBLE_EQ(b10->value, 3.0);
  EXPECT_DOUBLE_EQ(b20->value, 5.0);
  EXPECT_DOUBLE_EQ(binf->value, 6.0);
  EXPECT_LE(b10->value, b20->value);
  EXPECT_LE(b20->value, binf->value);
  const PromSample* count = FindSample(samples, "serve_latency_us_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, binf->value);
  const PromSample* sum = FindSample(samples, "serve_latency_us_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->value, 123.5);
}

TEST(PrometheusTest, RenderGlobalRegistrySnapshotParses) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.prom_counter")->Reset();
  reg.GetCounter("test.prom_counter")->Add(7);
  obs::Histogram* h = reg.GetHistogram("test.prom_hist", {1.0, 2.0});
  h->Reset();
  h->Observe(0.5);
  h->Observe(5.0);  // overflow
  const std::string text = obs::RenderPrometheusText();
  const std::vector<PromSample> samples = ParsePrometheusText(text);
  const PromSample* c = FindSample(samples, "test_prom_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 7.0);
  const PromSample* binf =
      FindSample(samples, "test_prom_hist_bucket", "le=\"+Inf\"");
  ASSERT_NE(binf, nullptr);
  EXPECT_DOUBLE_EQ(binf->value, 2.0);
  // Cumulative buckets never decrease across any rendered histogram.
  std::string current;
  double last = 0.0;
  for (const PromSample& s : samples) {
    if (s.name.size() < 7 ||
        s.name.compare(s.name.size() - 7, 7, "_bucket") != 0) {
      continue;
    }
    if (s.name != current) {
      current = s.name;
      last = 0.0;
    }
    EXPECT_GE(s.value, last) << s.name << "{" << s.labels << "}";
    last = s.value;
  }
}

// ---------------------------------------------------------------------------
// Counter-enriched spans
// ---------------------------------------------------------------------------

/// Deterministic fake hardware-counter source.
class FakeCounterProvider : public obs::CounterProvider {
 public:
  const char* name() const override { return "fake"; }
  bool StartThread(std::string*) override { return true; }
  obs::HwCounters Read() override {
    obs::HwCounters c;
    c.cycles = reads_ * 1000;
    c.instructions = reads_ * 2000;
    c.llc_misses = reads_ * 10;
    ++reads_;
    return c;
  }

 private:
  uint64_t reads_ = 1;
};

/// Provider that always refuses, with a recognizable reason.
class RefusingCounterProvider : public obs::CounterProvider {
 public:
  const char* name() const override { return "refuser"; }
  bool StartThread(std::string* reason) override {
    if (reason != nullptr) *reason = "refused for test";
    return false;
  }
  obs::HwCounters Read() override { return {}; }
};

TEST(CountersTest, SpanProfileRecordsCpuTime) {
  obs::Tracer::Reset();
  {
    OPTINTER_TRACE_SPAN("cpu_probe");
    // Burn enough CPU that CLOCK_THREAD_CPUTIME_ID ticks.
    volatile double x = 1.0;
    for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 1e-9;
  }
  const obs::SpanProfile profile = obs::Tracer::Collect();
  const obs::SpanProfile* s = FindChild(profile, "cpu_probe");
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->total_ns, 0u);
  if (obs::CountersStatus().cpu_time) {
    EXPECT_GT(s->cpu_ns, 0u);
    EXPECT_LE(s->cpu_seconds(), s->total_seconds() * 1.5 + 0.01);
  }
}

TEST(CountersTest, FakeProviderFeedsHardwareColumns) {
  FakeCounterProvider fake;
  obs::SetCounterProvider(&fake);
  obs::Tracer::Reset();
  {
    OPTINTER_TRACE_SPAN("hw_probe");
  }
  const obs::SpanProfile profile = obs::Tracer::Collect();
  obs::SetCounterProvider(nullptr);
  const obs::SpanProfile* s = FindChild(profile, "hw_probe");
  ASSERT_NE(s, nullptr);
  // Fake deltas: one Read at span entry, one at exit.
  EXPECT_EQ(s->cycles, 1000u);
  EXPECT_EQ(s->instructions, 2000u);
  EXPECT_EQ(s->llc_misses, 10u);
}

TEST(CountersTest, StatusReportsProviderAndDegradation) {
  RefusingCounterProvider refuser;
  obs::SetCounterProvider(&refuser);
  obs::Tracer::Reset();
  {
    OPTINTER_TRACE_SPAN("degraded_probe");
  }
  const obs::CounterStatus status = obs::CountersStatus();
  EXPECT_EQ(status.provider, "refuser");
  EXPECT_FALSE(status.hardware);
  EXPECT_EQ(status.degradation_reason, "refused for test");

  // The profile JSON carries the per-span columns and the run-level
  // counter status, so a report always says why hardware columns are 0.
  const obs::JsonValue j = obs::Tracer::ToJson(obs::Tracer::Collect());
  obs::SetCounterProvider(nullptr);
  ASSERT_NE(j.Find("counter_status"), nullptr);
  const obs::JsonValue& cs = *j.Find("counter_status");
  EXPECT_EQ(cs.Find("provider")->string_value(), "refuser");
  EXPECT_FALSE(cs.Find("hardware")->bool_value());
  EXPECT_EQ(cs.Find("degradation_reason")->string_value(),
            "refused for test");
  ASSERT_GT(j.Find("children")->size(), 0u);
  const obs::JsonValue& child = j.Find("children")->at(0);
  ASSERT_NE(child.Find("cpu_ns"), nullptr);
  ASSERT_NE(child.Find("cycles"), nullptr);
  ASSERT_NE(child.Find("instructions"), nullptr);
  ASSERT_NE(child.Find("llc_misses"), nullptr);
}

// ---------------------------------------------------------------------------
// Timeline (Chrome trace-event export)
// ---------------------------------------------------------------------------

/// RAII guard so a failed ASSERT cannot leave the timeline enabled for
/// later tests.
struct TimelineGuard {
  explicit TimelineGuard(const std::string& path, size_t capacity) {
    obs::Timeline::EnableForTest(path, capacity);
  }
  ~TimelineGuard() { obs::Timeline::DisableForTest(); }
};

TEST(TimelineTest, RendersValidChromeTraceJson) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "optinter_timeline.json")
          .string();
  TimelineGuard guard(path, 1024);
  {
    OPTINTER_TRACE_SPAN("tl_outer");
    {
      OPTINTER_TRACE_SPAN("tl_inner");
    }
    obs::Timeline::RecordInstant("tl_marker", "k=v");
  }
  const std::string json = obs::Timeline::RenderJson();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(json, &doc, &error)) << error;
  const obs::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t begins = 0, ends = 0, instants = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const obs::JsonValue& e = events->at(i);
    const std::string& ph = e.Find("ph")->string_value();
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    if (ph == "M") continue;  // thread-name metadata
    ASSERT_NE(e.Find("ts"), nullptr);
    const std::string& name = e.Find("name")->string_value();
    if (ph == "B" && (name == "tl_outer" || name == "tl_inner")) ++begins;
    if (ph == "E" && (name == "tl_outer" || name == "tl_inner")) ++ends;
    if (ph == "i" && name == "tl_marker") {
      ++instants;
      EXPECT_EQ(e.Find("s")->string_value(), "t");
      EXPECT_EQ(e.Find("args")->Find("detail")->string_value(), "k=v");
    }
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(instants, 1u);
  // Events come out sorted by timestamp (Perfetto requirement).
  double last_ts = -1.0;
  for (size_t i = 0; i < events->size(); ++i) {
    const obs::JsonValue* ts = events->at(i).Find("ts");
    if (ts == nullptr) continue;
    EXPECT_GE(ts->number(), last_ts);
    last_ts = ts->number();
  }

  // FlushTo writes the same document to disk, atomically.
  ASSERT_TRUE(obs::Timeline::FlushTo(path, &error)) << error;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue from_disk;
  ASSERT_TRUE(obs::JsonValue::Parse(buffer.str(), &from_disk, &error))
      << error;
  ASSERT_NE(from_disk.Find("traceEvents"), nullptr);
  std::filesystem::remove(path);
}

TEST(TimelineTest, RingDropsOldestAndCountsDrops) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "optinter_timeline2.json")
          .string();
  TimelineGuard guard(path, 8);
  for (int i = 0; i < 20; ++i) {
    obs::Timeline::RecordInstant("drop_probe");
  }
  EXPECT_EQ(obs::Timeline::DroppedEvents(), 12u);
  const std::string json = obs::Timeline::RenderJson();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(json, &doc, &error)) << error;
  // The ring kept only the newest `capacity` events...
  size_t kept = 0;
  const obs::JsonValue* events = doc.Find("traceEvents");
  for (size_t i = 0; i < events->size(); ++i) {
    if (events->at(i).Find("name")->string_value() == "drop_probe") ++kept;
  }
  EXPECT_EQ(kept, 8u);
  // ...and the export says how many were lost.
  EXPECT_EQ(doc.Find("otherData")->Find("dropped_events")->number(), 12.0);
}

// OPTINTER_OBS_TIMELINE_EVENTS must be a whole decimal integer in
// [2, kMaxCapacity]; anything else parses to 0 and the default stays.
// Pure parse: no ring of the refused size is ever allocated.
TEST(TimelineTest, CapacityEnvParsesWholeBoundedIntegers) {
  EXPECT_EQ(obs::Timeline::ParseCapacity("2"), 2u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("65536"), 65536u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("1048576"),
            obs::Timeline::kMaxCapacity);
  EXPECT_EQ(obs::Timeline::ParseCapacity("1048577"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("4000000000000"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("99999999999999999999999"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("64k"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("1"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("0"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity("-8"), 0u);
  EXPECT_EQ(obs::Timeline::ParseCapacity(""), 0u);
}

TEST(TimelineTest, DisabledRecordingIsInert) {
  obs::Timeline::DisableForTest();
  EXPECT_FALSE(obs::Timeline::Enabled());
  obs::Timeline::RecordInstant("ignored");
  std::string error;
  EXPECT_FALSE(obs::Timeline::Flush(&error));  // no path configured
}

// ---------------------------------------------------------------------------
// Logging satellites
// ---------------------------------------------------------------------------

TEST(LoggingTest, LogLevelFromString) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(LogLevelFromString("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(LogLevelFromString("WARNING", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(LogLevelFromString("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(LogLevelFromString("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  level = LogLevel::kDebug;
  EXPECT_FALSE(LogLevelFromString("nope", &level));
  EXPECT_EQ(level, LogLevel::kDebug);  // untouched on failure
}

TEST(LoggingTest, LinePrefixHasLevelTimestampThreadAndLocation) {
  SetLogLevel(LogLevel::kInfo);
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  LOG_INFO() << "prefix format probe";
  std::cerr.rdbuf(old);
  const std::string line = captured.str();
  // "[I HH:MM:SS.mmm tN file:line] prefix format probe\n"
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.substr(0, 3), "[I ");
  EXPECT_NE(line.find(" t"), std::string::npos);
  EXPECT_NE(line.find("obs_test.cc:"), std::string::npos);
  EXPECT_NE(line.find("] prefix format probe\n"), std::string::npos);
  // Timestamp shape: two ':' in HH:MM:SS and one '.' before millis.
  const size_t ts_start = 3;
  EXPECT_EQ(line[ts_start + 2], ':');
  EXPECT_EQ(line[ts_start + 5], ':');
  EXPECT_EQ(line[ts_start + 8], '.');
}

TEST(LoggingTest, BelowLevelLinesAreSuppressed) {
  SetLogLevel(LogLevel::kWarning);
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  LOG_INFO() << "should not appear";
  LOG_WARNING() << "should appear";
  std::cerr.rdbuf(old);
  SetLogLevel(LogLevel::kInfo);
  const std::string out = captured.str();
  EXPECT_EQ(out.find("should not appear"), std::string::npos);
  EXPECT_NE(out.find("should appear"), std::string::npos);
}

TEST(LoggingTest, ConcurrentLinesDoNotInterleave) {
  SetLogLevel(LogLevel::kInfo);
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  ThreadPool pool(4);
  constexpr int kLines = 200;
  for (int i = 0; i < kLines; ++i) {
    pool.Submit([] { LOG_INFO() << "interleave-probe-payload"; });
  }
  pool.Wait();
  std::cerr.rdbuf(old);
  // Every emitted line contains the intact payload exactly once.
  std::istringstream lines(captured.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("interleave-probe-payload"), std::string::npos)
        << "torn line: " << line;
    ++count;
  }
  EXPECT_EQ(count, kLines);
}

// ---------------------------------------------------------------------------
// Trainer JSON
// ---------------------------------------------------------------------------

TEST(TrainerJsonTest, TelemetryRoundTripsThroughJson) {
  TrainTelemetry t;
  EpochTelemetry e;
  e.epoch = 0;
  e.train_seconds = 1.5;
  e.eval_seconds = 0.25;
  e.train_rows_per_sec = 1000.0;
  e.mean_train_loss = 0.693;
  e.improved = true;
  t.epochs.push_back(e);
  t.train_seconds_total = 1.5;
  t.eval_seconds_total = 0.25;
  t.train_rows_per_sec = 1000.0;
  t.best_epoch = 0;
  t.early_stopped = false;
  t.restored_best_snapshot = true;

  const obs::JsonValue j = TelemetryToJson(t);
  EXPECT_EQ(j.Find("epochs")->size(), 1u);
  const obs::JsonValue& ej = j.Find("epochs")->at(0);
  EXPECT_DOUBLE_EQ(ej.Find("train_seconds")->number(), 1.5);
  EXPECT_TRUE(ej.Find("improved")->bool_value());
  EXPECT_DOUBLE_EQ(j.Find("train_seconds_total")->number(), 1.5);
  EXPECT_TRUE(j.Find("restored_best_snapshot")->bool_value());
  // Serialized form parses back to an equal value.
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(j.Serialize(2), &parsed, &error))
      << error;
  EXPECT_EQ(parsed, j);
}

}  // namespace
}  // namespace optinter
