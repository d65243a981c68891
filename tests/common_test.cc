#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "green/bench_util/experiment.h"
#include "green/common/arena.h"
#include "green/common/knobs.h"
#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/common/rng.h"
#include "green/common/status.h"
#include "green/common/stringutil.h"
#include "green/common/thread_pool.h"
#include "green/serve/request_stream.h"
#include "green/serve/serve_policy.h"
#include "green/table/task_type.h"

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
  // Compared whole: reading status().ok() of a value-holding Result<int>
  // makes g++ 12 -O3 report -Wmaybe-uninitialized on the Status member.
  EXPECT_EQ(r.status(), Status::Ok());
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

/// The rejection sampler NextBounded used before it tested `r >= bound`
/// first; counts the draws it rejected.
uint64_t ReferenceBounded(Rng* rng, uint64_t bound, int* rejections) {
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = rng->NextUint64();
    if (r >= threshold) return r % bound;
    ++*rejections;
  }
}

TEST(RngTest, NextBoundedMatchesRejectionReference) {
  const uint64_t kBounds[] = {1,
                              2,
                              17,
                              (uint64_t{1} << 32) + 7,
                              (uint64_t{1} << 63) + 1,
                              UINT64_MAX};
  int rejections = 0;
  for (uint64_t seed : {1u, 29u, 404u}) {
    Rng rng(seed);
    Rng reference(seed);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t bound = kBounds[i % 6];
      ASSERT_EQ(rng.NextBounded(bound),
                ReferenceBounded(&reference, bound, &rejections))
          << "seed " << seed << ", draw " << i << ", bound " << bound;
    }
    // Same number of words consumed: the generators stay in step.
    EXPECT_EQ(rng.NextUint64(), reference.NextUint64());
  }
  // 2^63 + 1 rejects almost half its draws, so the loop path is covered.
  EXPECT_GT(rejections, 100);
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

TEST(MathTest, SquaredDistance) {
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

TEST(StringTest, EndsWith) {
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

// --- knob table ---

/// Sets one variable for its lifetime, restoring the old value after.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// What the knobs reach: both loaders, plus the rows no struct owns.
struct Loaded {
  ExperimentConfig config;
  ServePolicy serve;
  std::string trace;
  bool tune = false;
};

Loaded LoadAll(const KnobValues& knobs) {
  Loaded out;
  out.config.Load(knobs);
  out.serve.Load(knobs);
  knobs.Assign(knob::kTrace, &out.trace);
  knobs.Assign(knob::kTune, &out.tune);
  return out;
}

std::string Num(double value) { return StrFormat("%.15g", value); }

/// An enum field as its value, so a test names the constant it expects.
template <typename E>
  requires std::is_enum_v<E>
std::string Num(E value) {
  return Num(static_cast<int>(value));
}

/// The field each library row sets, rendered as text.
const std::map<const Knob*, std::function<std::string(const Loaded&)>>&
Fields() {
  static const auto* kFields = new std::map<
      const Knob*, std::function<std::string(const Loaded&)>>{
      {&knob::kJobs, [](const Loaded& l) { return Num(l.config.jobs); }},
      {&knob::kJournal, [](const Loaded& l) { return l.config.journal_path; }},
      {&knob::kResume, [](const Loaded& l) { return Num(l.config.resume); }},
      {&knob::kShard,
       [](const Loaded& l) {
         return StrFormat("%d/%d", l.config.shard_index,
                          l.config.shard_count);
       }},
      {&knob::kRetries,
       [](const Loaded& l) { return Num(l.config.retry.max_attempts); }},
      {&knob::kCellTimeout,
       [](const Loaded& l) { return Num(l.config.cell_timeout_seconds); }},
      {&knob::kFaults, [](const Loaded& l) { return l.config.faults; }},
      {&knob::kScopes,
       [](const Loaded& l) { return Num(l.config.collect_scopes); }},
      {&knob::kTransformCache,
       [](const Loaded& l) { return Num(l.config.transform_cache); }},
      {&knob::kTransformCacheMb,
       [](const Loaded& l) { return Num(l.config.transform_cache_mb); }},
      {&knob::kFull,
       [](const Loaded& l) {
         return StrFormat("%zu/%d/%zu", l.config.dataset_limit,
                          l.config.repetitions, l.config.profile.max_rows);
       }},
      {&knob::kServeQueue,
       [](const Loaded& l) { return Num(l.serve.queue_capacity); }},
      {&knob::kServeBatch,
       [](const Loaded& l) { return Num(l.serve.max_batch); }},
      {&knob::kServeBatchDelayMs,
       [](const Loaded& l) { return Num(l.serve.batch_delay_seconds); }},
      {&knob::kServeDeadlineMs,
       [](const Loaded& l) { return Num(l.serve.deadline_seconds); }},
      {&knob::kServeEnergySloJ,
       [](const Loaded& l) { return Num(l.serve.energy_slo_joules); }},
      {&knob::kServePolicy,
       [](const Loaded& l) { return Num(l.serve.on_deadline); }},
      {&knob::kServeShed, [](const Loaded& l) { return Num(l.serve.shed); }},
      {&knob::kTrace, [](const Loaded& l) { return l.trace; }},
      {&knob::kTune, [](const Loaded& l) { return Num(l.tune); }},
  };
  return *kFields;
}

struct KnobCase {
  const Knob* knob;
  const char* text;
  /// The field after loading; nullptr = malformed: the variable keeps the
  /// default (with one warning unless empty), the flag is an error.
  std::optional<std::string> expected;
};

TEST(KnobTableTest, EnvAndFlagParseEveryRowAlike) {
  const std::string hardware = Num(ThreadPool::DefaultThreads());
  const std::vector<KnobCase> cases = {
      {&knob::kJobs, "", std::nullopt},
      {&knob::kJobs, "banana", std::nullopt},
      {&knob::kJobs, "4x", std::nullopt},
      {&knob::kJobs, "99999999999999999999", "4096"},
      {&knob::kJobs, "-17", "1"},
      {&knob::kJobs, "3", "3"},
      {&knob::kJobs, "0", hardware},
      {&knob::kFaults, "", ""},
      {&knob::kFaults, "run.fit@0.5", "run.fit@0.5"},
      {&knob::kJournal, "/tmp/journal.jsonl", "/tmp/journal.jsonl"},
      {&knob::kResume, "1", "1"},
      {&knob::kResume, "0", "0"},
      {&knob::kResume, "yes", std::nullopt},
      {&knob::kRetries, "nope", std::nullopt},
      {&knob::kRetries, "99999999999999999999", "100"},
      {&knob::kRetries, "1000", "100"},
      {&knob::kRetries, "-2", "1"},
      {&knob::kRetries, "5", "5"},
      {&knob::kCellTimeout, "abc", std::nullopt},
      {&knob::kCellTimeout, "nan", std::nullopt},
      {&knob::kCellTimeout, "-5", "0"},
      {&knob::kCellTimeout, "2.5", "2.5"},
      {&knob::kScopes, "1", "1"},
      {&knob::kTransformCache, "0", "0"},
      {&knob::kTransformCache, "yes", std::nullopt},
      {&knob::kTransformCacheMb, "0.5", "1"},
      {&knob::kTransformCacheMb, "1e9", "65536"},
      {&knob::kTransformCacheMb, "512", "512"},
      {&knob::kFull, "1", "0/10/4000"},
      {&knob::kFull, "0", "8/2/1400"},
      {&knob::kShard, "1/3", "1/3"},
      {&knob::kShard, "nonsense", std::nullopt},
      {&knob::kShard, "3/3", std::nullopt},
      {&knob::kServeQueue, "99999999999999999999", "1048576"},
      {&knob::kServeQueue, "12abc", std::nullopt},
      {&knob::kServeBatch, "-7", "1"},
      {&knob::kServeBatchDelayMs, "20", "0.02"},
      {&knob::kServeDeadlineMs, "1e30", "3600"},
      {&knob::kServeDeadlineMs, "inf", std::nullopt},
      {&knob::kServeEnergySloJ, "0.001", "0.001"},
      {&knob::kServePolicy, "degrade",
       Num(ServePolicy::DeadlineAction::kDegrade)},
      {&knob::kServePolicy, "fail", Num(ServePolicy::DeadlineAction::kFail)},
      {&knob::kServePolicy, "bogus", std::nullopt},
      {&knob::kServeShed, "oldest", Num(ServePolicy::ShedPolicy::kOldest)},
      {&knob::kServeShed, "newest", Num(ServePolicy::ShedPolicy::kNewest)},
      {&knob::kServeShed, "bogus", std::nullopt},
      {&knob::kServeShed, "", std::nullopt},
      {&knob::kTrace, "/tmp/trace.jsonl", "/tmp/trace.jsonl"},
      {&knob::kTune, "1", "1"},
      {&knob::kTune, "2", std::nullopt},
  };
  // Every library row has at least one valid case.
  for (const Knob* row : knob::kLibrary) {
    EXPECT_TRUE(std::any_of(cases.begin(), cases.end(), [&](auto& c) {
      return c.knob == row && c.expected.has_value();
    })) << row->env;
  }
  // Unset variables leave the struct defaults.
  const Loaded defaults = LoadAll(KnobValues());
  EXPECT_EQ(Fields().at(&knob::kJobs)(defaults), "1");
  EXPECT_EQ(Fields().at(&knob::kRetries)(defaults), "2");
  EXPECT_EQ(Fields().at(&knob::kCellTimeout)(defaults), "0");
  EXPECT_EQ(Fields().at(&knob::kShard)(defaults), "0/1");
  for (const KnobCase& c : cases) {
    SCOPED_TRACE(std::string(c.knob->env) + "='" + c.text + "'");
    const auto& field = Fields().at(c.knob);

    KnobValues env;
    std::string warnings;
    {
      EnvGuard guard(c.knob->env, c.text);
      testing::internal::CaptureStderr();
      env.ReadEnv(*c.knob);
      warnings = testing::internal::GetCapturedStderr();
    }
    KnobValues flags;
    const Status set = flags.Set(*c.knob, c.text);

    if (!c.expected) {
      EXPECT_EQ(field(LoadAll(env)), field(defaults));
      EXPECT_EQ(std::count(warnings.begin(), warnings.end(), '\n'),
                c.text[0] == '\0' ? 0 : 1);
      if (c.text[0] != '\0') {
        EXPECT_NE(warnings.find(c.knob->env), std::string::npos);
      }
      EXPECT_FALSE(set.ok());
      const char* name = c.knob->flag != nullptr ? c.knob->flag : c.knob->env;
      EXPECT_EQ(set.message().rfind(std::string(name) + ": ", 0), 0u)
          << set.message();
    } else {
      EXPECT_EQ(warnings, "");
      EXPECT_EQ(field(LoadAll(env)), *c.expected);
      ASSERT_TRUE(set.ok()) << set.ToString();
      EXPECT_EQ(field(LoadAll(flags)), *c.expected);
    }
  }
}

TEST(KnobTableTest, StrictRowsRejectInsteadOfClamping) {
  constexpr Knob kBudget{.flag = "--budget", .type = KnobType::kDouble,
                         .min = 1, .max = 100, .reject_out_of_range = true};
  EXPECT_EQ(std::get<double>(ParseKnob(kBudget, "30").value()), 30.0);
  EXPECT_FALSE(ParseKnob(kBudget, "-5").ok());
  EXPECT_FALSE(ParseKnob(kBudget, "101").ok());
}

/// Loads each value's own name through a row built by EnumChoices, as the
/// CLI's --task and --trace rows are, and expects that value back.
template <typename E>
void ExpectEnumRowLoadsEachName(const char* (*name)(E),
                                std::initializer_list<E> values) {
  const std::string choices = EnumChoices(name, static_cast<int>(values.size()));
  const Knob row{.flag = "--row", .type = KnobType::kEnum,
                 .choices = choices.c_str()};
  for (const E value : values) {
    SCOPED_TRACE(name(value));
    KnobValues knobs;
    ASSERT_TRUE(knobs.Set(row, name(value)).ok());
    EXPECT_EQ(knobs.Get<E>(row), value);
  }
  EXPECT_FALSE(KnobValues().Set(row, "tsunami").ok());
}

TEST(KnobTableTest, EnumChoicesLoadTheNamedValue) {
  ExpectEnumRowLoadsEachName(
      TaskTypeName,
      {TaskType::kBinary, TaskType::kMulticlass, TaskType::kRegression});
  ExpectEnumRowLoadsEachName(TraceKindName,
                             {TraceSpec::Kind::kConstant,
                              TraceSpec::Kind::kDiurnal,
                              TraceSpec::Kind::kBurst});
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
