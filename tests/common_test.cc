#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "green/common/arena.h"
#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/common/rng.h"
#include "green/common/status.h"
#include "green/common/stringutil.h"

namespace green {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OUT_OF_RANGE: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::Unimplemented("x").ToString(), "UNIMPLEMENTED: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
  EXPECT_EQ(Status::IoError("x").ToString(), "IO_ERROR: x");
  EXPECT_EQ(Status::ResourceExhausted("x").ToString(),
            "RESOURCE_EXHAUSTED: x");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  GREEN_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(4, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(UseHalf(3, &out).code(), Status::Code::kInvalidArgument);
}

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ShuffleEmptyIsNoop) {
  Rng rng(1);
  std::vector<int> v;
  rng.Shuffle(&v);
  EXPECT_TRUE(v.empty());
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child stream should differ from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, HashCombineAndStringStable) {
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashString("credit-g"), HashString("credit-g"));
  EXPECT_NE(HashString("credit-g"), HashString("adult"));
}

// --- mathutil ---

TEST(MathTest, SoftmaxNormalizes) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  SoftmaxInPlace(&v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-12);
  EXPECT_GT(v[2], v[1]);
  EXPECT_GT(v[1], v[0]);
}

TEST(MathTest, SoftmaxHandlesLargeValues) {
  std::vector<double> v = {1000.0, 1000.0};
  SoftmaxInPlace(&v);
  EXPECT_NEAR(v[0], 0.5, 1e-12);
}

TEST(MathTest, LogSumExp) {
  EXPECT_NEAR(LogSumExp({0.0, 0.0}), std::log(2.0), 1e-12);
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, MeanStdDevMedian) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_NEAR(Mean(v), 3.0, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(Median(v), 3.0, 1e-12);
  EXPECT_NEAR(Median({1, 2, 3, 4}), 2.5, 1e-12);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
}

TEST(MathTest, QuantileInterpolates) {
  std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_NEAR(Quantile(v, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(Quantile(v, 1.0), 40.0, 1e-12);
  EXPECT_NEAR(Quantile(v, 0.5), 20.0, 1e-12);
  EXPECT_NEAR(Quantile(v, 0.25), 10.0, 1e-12);
}

TEST(MathTest, DotAndDistance) {
  EXPECT_NEAR(Dot({1, 2}, {3, 4}), 11.0, 1e-12);
  EXPECT_NEAR(SquaredDistance({0, 0}, {3, 4}), 25.0, 1e-12);
}

TEST(MathTest, SigmoidBoundsAndMidpoint) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_GT(Sigmoid(100.0), 0.999);
  EXPECT_LT(Sigmoid(-100.0), 0.001);
}

TEST(MathTest, ArgMaxAndClamp) {
  EXPECT_EQ(ArgMax({0.1, 0.7, 0.2}), 1u);
  EXPECT_EQ(ArgMax({}), 0u);
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

// --- stringutil ---

TEST(StringTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(404649), "404,649");
  EXPECT_EQ(FormatWithCommas(1000000), "1,000,000");
  EXPECT_EQ(FormatWithCommas(-1234), "-1,234");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("intel-rapl:0", "intel-rapl"));
  EXPECT_FALSE(StartsWith("x", "xy"));
  EXPECT_TRUE(EndsWith("col#cat", "#cat"));
  EXPECT_FALSE(EndsWith("cat", "#cat"));
}

// --- logging ---

TEST(LoggingTest, LevelFilterRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  LogInfo("should be invisible");  // Must not crash.
  SetLogLevel(original);
}

// --- Arena ---

TEST(ArenaTest, ResetKeepsBlocksAndReusesThem) {
  Arena arena(/*block_bytes=*/4096);
  for (int i = 0; i < 8; ++i) arena.AllocArray<double>(400);
  const size_t warm_blocks = arena.block_count();
  const size_t warm_reserved = arena.reserved_bytes();
  EXPECT_GT(warm_blocks, 1u);
  EXPECT_GT(arena.allocated_bytes(), 0u);

  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.block_count(), warm_blocks);  // Blocks retained.
  EXPECT_EQ(arena.reserved_bytes(), warm_reserved);

  // The warmed arena satisfies the same allocation pattern without
  // growing — the property that makes repeated fits allocation-free.
  for (int i = 0; i < 8; ++i) arena.AllocArray<double>(400);
  EXPECT_EQ(arena.block_count(), warm_blocks);
}

TEST(ArenaTest, ScopeRewindsNestedAllocations) {
  Arena arena(/*block_bytes=*/4096);
  arena.AllocArray<int>(10);
  const Arena::Mark outer = arena.CurrentMark();
  {
    ArenaScope scope(&arena);
    arena.AllocArray<double>(2000);  // Spills into further blocks.
    {
      ArenaScope inner(&arena);
      arena.AllocArray<double>(2000);
    }
    arena.AllocArray<char>(64);
  }
  const Arena::Mark after = arena.CurrentMark();
  EXPECT_EQ(after.block, outer.block);
  EXPECT_EQ(after.offset, outer.offset);
}

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  arena.Alloc(1, 1);  // Deliberately misalign the bump pointer.
  double* d = arena.AllocArray<double>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  int32_t* i = arena.AllocArray<int32_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(i) % alignof(int32_t), 0u);
}

}  // namespace
}  // namespace green
