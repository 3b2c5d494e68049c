#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace optinter {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad field");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad field");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad field");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::Invalid("").code(),      Status::OutOfRange("").code(),
      Status::NotFound("").code(),     Status::AlreadyExists("").code(),
      Status::FailedPrecondition("").code(), Status::IoError("").code(),
      Status::Internal("").code(),     Status::Unimplemented("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IO_ERROR");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailingHelper() { return Status::IoError("disk"); }
Status PropagatingHelper() {
  OPTINTER_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringUtilTest, HumanCountMatchesPaperStyle) {
  EXPECT_EQ(HumanCount(500000), "0.5M");
  EXPECT_EQ(HumanCount(13000000), "13M");
  EXPECT_EQ(HumanCount(1012000000), "1012M");
  EXPECT_EQ(HumanCount(1234), "1234");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRangeAndCoversAll) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(77);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GumbelMoments) {
  // Gumbel(0,1): mean = Euler-Mascheroni ≈ 0.5772, var = π²/6 ≈ 1.6449.
  Rng rng(78);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gumbel();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5772, 0.03);
  EXPECT_NEAR(var, 1.6449, 0.08);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ZipfHeadHeavy) {
  Rng rng(13);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) head += rng.Zipf(100, 1.2) < 5;
  // With exponent 1.2, the top-5 ranks carry far more than 5% of mass.
  EXPECT_GT(head, n / 4);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); },
              /*grain=*/10);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksCoverExactly) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelForChunks(
      0, 5000,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*min_chunk=*/64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// OPTINTER_THREADS must be a whole decimal integer in [1, kMaxEnvThreads];
// anything else parses to 0 (the pool then warns and uses the hardware
// concurrency). Pure parse: no pool of the refused size is ever built.
TEST(ThreadPoolTest, ThreadsEnvParsesWholeBoundedIntegers) {
  EXPECT_EQ(ParseThreadsEnv("1"), 1u);
  EXPECT_EQ(ParseThreadsEnv("4"), 4u);
  EXPECT_EQ(ParseThreadsEnv("1024"), kMaxEnvThreads);
  EXPECT_EQ(ParseThreadsEnv("1025"), 0u);
  EXPECT_EQ(ParseThreadsEnv("2000000000"), 0u);
  EXPECT_EQ(ParseThreadsEnv("99999999999999999999999"), 0u);
  EXPECT_EQ(ParseThreadsEnv("0"), 0u);
  EXPECT_EQ(ParseThreadsEnv("-4"), 0u);
  EXPECT_EQ(ParseThreadsEnv("64k"), 0u);
  EXPECT_EQ(ParseThreadsEnv("4 "), 0u);
  EXPECT_EQ(ParseThreadsEnv(""), 0u);
  EXPECT_EQ(ParseThreadsEnv("four"), 0u);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------------
// FlagParser
// ---------------------------------------------------------------------------

TEST(FlagsTest, DefaultsApply) {
  FlagParser flags;
  flags.AddInt("n", 42, "count");
  flags.AddString("name", "x", "name");
  flags.AddBool("fast", false, "speed");
  flags.AddDouble("rate", 0.5, "rate");
  char prog[] = "prog";
  char* argv[] = {prog};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("n"), 42);
  EXPECT_EQ(flags.GetString("name"), "x");
  EXPECT_FALSE(flags.GetBool("fast"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.5);
}

TEST(FlagsTest, EqualsAndSpaceSyntax) {
  FlagParser flags;
  flags.AddInt("a", 0, "");
  flags.AddInt("b", 0, "");
  char prog[] = "prog", f1[] = "--a=3", f2[] = "--b", f3[] = "7";
  char* argv[] = {prog, f1, f2, f3};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  EXPECT_EQ(flags.GetInt("a"), 3);
  EXPECT_EQ(flags.GetInt("b"), 7);
}

TEST(FlagsTest, BoolWithoutValue) {
  FlagParser flags;
  flags.AddBool("on", false, "");
  char prog[] = "prog", f1[] = "--on";
  char* argv[] = {prog, f1};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_TRUE(flags.GetBool("on"));
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagParser flags;
  char prog[] = "prog", f1[] = "--mystery=1";
  char* argv[] = {prog, f1};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagsTest, BadIntRejected) {
  FlagParser flags;
  flags.AddInt("n", 0, "");
  char prog[] = "prog", f1[] = "--n=abc";
  char* argv[] = {prog, f1};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagsTest, NegativeAndFloatValues) {
  FlagParser flags;
  flags.AddInt("n", 0, "");
  flags.AddDouble("x", 0, "");
  char prog[] = "prog", f1[] = "--n=-5", f2[] = "--x=1e-3";
  char* argv[] = {prog, f1, f2};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetInt("n"), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x"), 1e-3);
}

TEST(FlagsTest, UsageMentionsFlags) {
  FlagParser flags;
  flags.AddInt("epochs", 3, "training epochs");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--epochs"), std::string::npos);
  EXPECT_NE(usage.find("training epochs"), std::string::npos);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch w;
  EXPECT_GE(w.Elapsed(), 0.0);
  w.Reset();
  EXPECT_GE(w.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace optinter
