// Tests for the scoped charge tree: ChargeScope paths, sliced charges
// (bit-identity and truncation), mid-fit cancellation, per-scope energy
// conservation, GREEN_TRACE, the ASKL meta-store cache, journal
// compaction, and the RunRecord scope surface.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "green/automl/askl_meta_cache.h"
#include "green/automl/caml_system.h"
#include "green/automl/fitted_artifact.h"
#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/common/cancel.h"
#include "green/data/synthetic.h"
#include "green/ml/models/random_forest.h"
#include "green/sim/charge_trace.h"
#include "green/sim/execution_context.h"
#include "green/table/split.h"
#include "flops_meter.h"

namespace green {
namespace {

double DynamicJoules(const EnergyBreakdown& b) {
  return b.cpu_dynamic_j + b.gpu_dynamic_j + b.dram_j;
}

double SumScopeJoules(const EnergyReading& reading) {
  double sum = 0.0;
  for (const auto& [path, charge] : reading.scopes) sum += charge.joules;
  return sum;
}

class ChargeScopeTest : public ::testing::Test {
 protected:
  ChargeScopeTest()
      : energy_model_(MachineModel::Minimal()),
        ctx_(&clock_, &energy_model_, 1) {}

  VirtualClock clock_;
  EnergyModel energy_model_;
  ExecutionContext ctx_;
};

// --- Scope paths -----------------------------------------------------

TEST_F(ChargeScopeTest, ScopePathNestsAndRestores) {
  EXPECT_EQ(ctx_.scope_path(), "");
  EXPECT_EQ(ctx_.scope_depth(), 0u);
  {
    ChargeScope outer(&ctx_, "caml");
    EXPECT_EQ(ctx_.scope_path(), "caml");
    {
      ChargeScope mid(&ctx_, "search");
      ChargeScope inner(&ctx_, "pipeline");
      EXPECT_EQ(ctx_.scope_path(), "caml/search/pipeline");
      EXPECT_EQ(ctx_.scope_depth(), 3u);
    }
    EXPECT_EQ(ctx_.scope_path(), "caml");
    EXPECT_EQ(ctx_.scope_depth(), 1u);
  }
  EXPECT_EQ(ctx_.scope_path(), "");
  EXPECT_EQ(ctx_.scope_depth(), 0u);
}

TEST_F(ChargeScopeTest, ChargesLandOnActiveScopePath) {
  EnergyMeter meter(&energy_model_);
  meter.Start(clock_.Now());
  ctx_.SetMeter(&meter);

  ctx_.ChargeCpu(1e5, 100.0);  // No scope open: "(unscoped)".
  {
    ChargeScope sys(&ctx_, "caml");
    ctx_.ChargeCpu(1e5, 100.0);
    {
      ChargeScope fit(&ctx_, "fit");
      ctx_.ChargeCpu(2e5, 0.0);
      ctx_.ChargeCpu(2e5, 0.0);
    }
  }
  EnergyReading reading = meter.Stop(clock_.Now());

  ASSERT_EQ(reading.scopes.size(), 3u);
  EXPECT_EQ(reading.scopes.count(kUnscopedPath), 1u);
  EXPECT_EQ(reading.scopes.count("caml"), 1u);
  EXPECT_EQ(reading.scopes.count("caml/fit"), 1u);
  EXPECT_EQ(reading.scopes.at("caml/fit").charges, 2u);
  EXPECT_DOUBLE_EQ(reading.scopes.at("caml/fit").flops, 4e5);
  // Every charge lands on exactly one path: scope joules sum to the
  // dynamic part of the flat breakdown.
  const double dynamic = DynamicJoules(reading.breakdown);
  EXPECT_NEAR(SumScopeJoules(reading), dynamic, 1e-12 * dynamic);
}

// --- Sliced charges --------------------------------------------------

TEST_F(ChargeScopeTest, SlicedChargeIsBitIdenticalToUnsliced) {
  VirtualClock sliced_clock, whole_clock;
  ExecutionContext sliced(&sliced_clock, &energy_model_, 1);
  ExecutionContext whole(&whole_clock, &energy_model_, 1);
  sliced.SetMaxSliceSeconds(1e-4);
  whole.SetMaxSliceSeconds(0.0);  // Slicing disabled.

  EnergyMeter sliced_meter(&energy_model_), whole_meter(&energy_model_);
  sliced_meter.Start(0.0);
  whole_meter.Start(0.0);
  sliced.SetMeter(&sliced_meter);
  whole.SetMeter(&whole_meter);

  for (int i = 0; i < 5; ++i) {
    ChargeScope a(&sliced, "op"), b(&whole, "op");
    EXPECT_EQ(sliced.ChargeCpu(3e7 + i * 1e6, 512.0),
              whole.ChargeCpu(3e7 + i * 1e6, 512.0));
  }
  EXPECT_GT(sliced.charge_slices(), whole.charge_slices());
  EXPECT_EQ(whole.charge_slices(), 5u);

  // Exact equality, not near: the final slice lands on start + seconds.
  EXPECT_EQ(sliced.Now(), whole.Now());
  EnergyReading a = sliced_meter.Stop(sliced.Now());
  EnergyReading b = whole_meter.Stop(whole.Now());
  EXPECT_EQ(a.breakdown.TotalJoules(), b.breakdown.TotalJoules());
  EXPECT_EQ(a.scopes.at("op").joules, b.scopes.at("op").joules);
  EXPECT_EQ(a.scopes.at("op").seconds, b.scopes.at("op").seconds);
  EXPECT_EQ(a.scopes.at("op").flops, b.scopes.at("op").flops);
}

TEST_F(ChargeScopeTest, WholeSystemRunIsBitIdenticalUnderSlicing) {
  SyntheticSpec spec;
  spec.name = "task";
  spec.num_rows = 200;
  spec.num_features = 8;
  spec.num_informative = 6;
  spec.separation = 2.5;
  spec.seed = 3;
  Dataset data = GenerateSynthetic(spec).value();

  auto run = [&](double max_slice) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &energy_model_, 1);
    ctx.SetMaxSliceSeconds(max_slice);
    CamlSystem caml;
    AutoMlOptions options;
    options.search_budget_seconds = 2.0;
    options.seed = 7;
    auto result = caml.Fit(data, options, &ctx);
    EXPECT_TRUE(result.ok());
    return std::make_pair(ctx.Now(), result->execution.kwh());
  };
  const auto sliced = run(1e-3);
  const auto whole = run(0.0);
  EXPECT_EQ(sliced.first, whole.first);
  EXPECT_EQ(sliced.second, whole.second);
}

TEST_F(ChargeScopeTest, PreCancelledTokenTruncatesAfterFirstSlice) {
  CancelToken token;
  token.Cancel();
  ctx_.SetCancelToken(&token);
  ctx_.SetMaxSliceSeconds(1e-4);

  EnergyMeter meter(&energy_model_);
  meter.Start(0.0);
  ctx_.SetMeter(&meter);

  const double charged = ctx_.ChargeCpu(5e7, 0.0);
  EXPECT_TRUE(ctx_.charge_truncated());
  EXPECT_TRUE(ctx_.Interrupted());
  EXPECT_EQ(ctx_.charge_slices(), 1u);  // First slice always completes.
  EXPECT_GT(charged, 0.0);

  // Only the completed fraction is metered; the clock stopped with it.
  EnergyReading reading = meter.Stop(ctx_.Now());
  EXPECT_NEAR(reading.scopes.at(kUnscopedPath).seconds, ctx_.Now(),
              1e-12);
}

TEST_F(ChargeScopeTest, HardDeadlineTruncatesMidCharge) {
  // Calibrate: how many virtual seconds does 1e6 flops take?
  VirtualClock probe_clock;
  ExecutionContext probe(&probe_clock, &energy_model_, 1);
  probe.SetMaxSliceSeconds(0.0);
  const double per_1e6 = probe.ChargeCpu(1e6, 0.0);
  ASSERT_GT(per_1e6, 0.0);
  const double flops_for_10s = 1e6 * (10.0 / per_1e6);

  ctx_.SetMaxSliceSeconds(0.05);
  ctx_.SetHardDeadline(true);
  ctx_.SetDeadline(2.0);
  FlopsMeter metered(&ctx_);
  ctx_.ChargeCpu(flops_for_10s, 0.0);

  EXPECT_TRUE(ctx_.charge_truncated());
  EXPECT_TRUE(ctx_.Interrupted());
  EXPECT_GE(ctx_.Now(), 2.0);        // Stops at the slice boundary...
  EXPECT_LT(ctx_.Now(), 2.0 + 0.2);  // ...just past the deadline.

  // Fraction of the work counted matches the fraction of time elapsed.
  EXPECT_NEAR(metered.flops(), flops_for_10s * (ctx_.Now() / 10.0),
              1e-6 * flops_for_10s);
}

TEST_F(ChargeScopeTest, SoftDeadlineDoesNotTruncate) {
  // Default (Table 7 semantics): the virtual deadline alone never stops a
  // charge; systems finish the evaluation that straddles the budget.
  ctx_.SetMaxSliceSeconds(1e-3);
  ctx_.SetDeadline(1e-6);
  ctx_.ChargeCpu(5e7, 0.0);
  EXPECT_FALSE(ctx_.charge_truncated());
  EXPECT_FALSE(ctx_.Interrupted());
  EXPECT_TRUE(ctx_.DeadlineExceeded());
}

// --- Mid-fit cancellation (watchdog-style, threaded) -----------------

TEST_F(ChargeScopeTest, WatchdogCancelsRandomForestMidFit) {
  SyntheticSpec spec;
  spec.name = "big";
  spec.num_rows = 900;
  spec.num_features = 14;
  spec.num_informative = 10;
  spec.seed = 11;
  Dataset data = GenerateSynthetic(spec).value();

  RandomForestParams params;
  params.num_trees = 600;
  params.max_depth = 12;
  params.seed = 5;

  // Reference: the same fit run to completion.
  VirtualClock full_clock;
  ExecutionContext full_ctx(&full_clock, &energy_model_, 1);
  full_ctx.SetMaxSliceSeconds(1e-4);
  RandomForest full_forest(params);
  ASSERT_TRUE(full_forest.Fit(data, &full_ctx).ok());
  ASSERT_GT(full_ctx.charge_slices(), 1u);

  // Cancelled: a watchdog thread flips the token while Fit is running.
  CancelToken token;
  ctx_.SetCancelToken(&token);
  ctx_.SetMaxSliceSeconds(1e-4);
  std::thread watchdog([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    token.Cancel();
  });
  RandomForest forest(params);
  Status status = forest.Fit(data, &ctx_);
  watchdog.join();

  // The fit must unwind with DEADLINE_EXCEEDED before completing: fewer
  // trees built and fewer charge slices than the full fit.
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_LT(forest.num_trees(), static_cast<size_t>(params.num_trees));
  EXPECT_LT(ctx_.charge_slices(), full_ctx.charge_slices());
  EXPECT_TRUE(ctx_.Interrupted());
}

// --- Mid-predict cancellation (the serving-side mirror) ---------------

TEST_F(ChargeScopeTest, WatchdogCancelsArtifactMidPredict) {
  SyntheticSpec spec;
  spec.name = "big";
  spec.num_rows = 900;
  spec.num_features = 14;
  spec.num_informative = 10;
  spec.seed = 11;
  Dataset data = GenerateSynthetic(spec).value();

  // A heavyweight ensemble: two large forests, so PredictProba issues
  // enough sliced charges for a watchdog to land mid-predict.
  RandomForestParams params;
  params.num_trees = 400;
  params.max_depth = 12;
  std::vector<FittedArtifact::Member> members;
  for (uint64_t seed : {5u, 6u}) {
    VirtualClock fit_clock;
    ExecutionContext fit_ctx(&fit_clock, &energy_model_, 1);
    params.seed = seed;
    auto pipeline = std::make_shared<Pipeline>();
    pipeline->SetModel(std::make_unique<RandomForest>(params));
    ASSERT_TRUE(pipeline->Fit(data, &fit_ctx).ok());
    FittedArtifact::Member member;
    member.folds.push_back(std::move(pipeline));
    members.push_back(std::move(member));
  }
  const FittedArtifact artifact =
      FittedArtifact::Weighted(std::move(members));

  // Reference: the same predict run to completion.
  VirtualClock full_clock;
  ExecutionContext full_ctx(&full_clock, &energy_model_, 1);
  full_ctx.SetMaxSliceSeconds(1e-4);
  ASSERT_TRUE(artifact.PredictProba(data, &full_ctx).ok());
  ASSERT_GT(full_ctx.charge_slices(), 1u);

  // Cancelled: a watchdog thread flips the token while PredictProba is
  // running — the serving-side mirror of the mid-fit unwind above.
  EnergyMeter meter(&energy_model_);
  meter.Start(clock_.Now());
  ctx_.SetMeter(&meter);
  CancelToken token;
  ctx_.SetCancelToken(&token);
  ctx_.SetMaxSliceSeconds(1e-4);
  std::thread watchdog([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.Cancel();
  });
  auto proba = artifact.PredictProba(data, &ctx_);
  watchdog.join();
  EnergyReading reading = meter.Stop(clock_.Now());

  // The predict must unwind with DEADLINE_EXCEEDED before completing:
  // fewer charge slices than the full predict, and the meter only saw
  // the completed fraction — scope joules still sum to the dynamic total.
  ASSERT_FALSE(proba.ok());
  EXPECT_EQ(proba.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_LT(ctx_.charge_slices(), full_ctx.charge_slices());
  EXPECT_TRUE(ctx_.Interrupted());
  EXPECT_NEAR(SumScopeJoules(reading), DynamicJoules(reading.breakdown),
              1e-9 + 1e-6 * DynamicJoules(reading.breakdown));
}

// --- Conservation across every system --------------------------------

TEST_F(ChargeScopeTest, ScopeJoulesSumToDynamicEnergyForEverySystem) {
  ExperimentConfig config;
  config.dataset_limit = 1;
  config.budget_scale = 0.05;
  config.collect_scopes = true;
  ExperimentRunner runner(config);
  ASSERT_FALSE(runner.suite().empty());
  const Dataset& dataset = runner.suite()[0];

  for (const std::string& name : AllSystemNames()) {
    SCOPED_TRACE(name);
    RunRecord record = runner.RunCell(name, dataset, 60.0, 0);
    ASSERT_TRUE(record.ok()) << record.error;
    ASSERT_FALSE(record.scopes.empty());

    double execution_sum = 0.0, inference_sum = 0.0;
    for (const RunScope& scope : record.scopes) {
      const bool is_execution = scope.path.rfind("execution/", 0) == 0;
      const bool is_inference = scope.path.rfind("inference/", 0) == 0;
      EXPECT_TRUE(is_execution || is_inference) << scope.path;
      EXPECT_GE(scope.kwh, 0.0);
      if (is_execution) execution_sum += scope.kwh;
      if (is_inference) inference_sum += scope.kwh;
    }
    // Scope rows carry the dynamic energy; the headline totals add the
    // static/idle baseline on top, so the sums are a strict lower bound.
    EXPECT_GT(execution_sum, 0.0);
    EXPECT_LE(execution_sum, record.execution_kwh * (1.0 + 1e-9));
    EXPECT_LE(inference_sum,
              record.inference_kwh_per_instance * (1.0 + 1e-9));
  }
}

TEST_F(ChargeScopeTest, DirectFitScopesConserveAndNestUnderSystemName) {
  SyntheticSpec spec;
  spec.name = "task";
  spec.num_rows = 240;
  spec.num_features = 10;
  spec.num_informative = 8;
  spec.separation = 2.4;
  spec.seed = 21;
  Dataset data = GenerateSynthetic(spec).value();

  CamlSystem caml;
  AutoMlOptions options;
  options.search_budget_seconds = 2.0;
  options.seed = 9;
  auto run = caml.Fit(data, options, &ctx_);
  ASSERT_TRUE(run.ok());

  const EnergyReading& reading = run->execution;
  ASSERT_FALSE(reading.scopes.empty());
  for (const auto& [path, charge] : reading.scopes) {
    EXPECT_EQ(path.rfind("caml", 0), 0u) << path;
  }
  // The search phase drills down to named operators.
  bool has_operator_path = false;
  for (const auto& [path, charge] : reading.scopes) {
    if (path.find("/pipeline/fit/") != std::string::npos) {
      has_operator_path = true;
    }
  }
  EXPECT_TRUE(has_operator_path);
  const double dynamic = DynamicJoules(reading.breakdown);
  EXPECT_NEAR(SumScopeJoules(reading), dynamic, 1e-9 * dynamic);
}

// --- GREEN_TRACE ------------------------------------------------------

TEST_F(ChargeScopeTest, TraceEmitsBalancedEnterExitEvents) {
  const std::string path = ::testing::TempDir() + "/green_trace.jsonl";
  std::remove(path.c_str());
  ::setenv("GREEN_TRACE", path.c_str(), 1);
  ChargeTrace::Instance().ReopenFromEnv();
  ASSERT_TRUE(ChargeTrace::Instance().enabled());

  {
    ChargeScope sys(&ctx_, "caml");
    ChargeScope fit(&ctx_, "fit");
    ctx_.ChargeCpu(1e6, 0.0);
  }

  ::unsetenv("GREEN_TRACE");
  ChargeTrace::Instance().ReopenFromEnv();
  ASSERT_FALSE(ChargeTrace::Instance().enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  size_t enters = 0, exits = 0;
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lines.push_back(line);
    if (line.rfind("{\"ev\":\"enter\"", 0) == 0) ++enters;
    if (line.rfind("{\"ev\":\"exit\"", 0) == 0) ++exits;
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(enters, 2u);
  EXPECT_EQ(exits, 2u);
  EXPECT_NE(lines[0].find("\"path\":\"caml\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"path\":\"caml/fit\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"dt\":"), std::string::npos);
  std::remove(path.c_str());
}

// --- ASKL meta-store cache -------------------------------------------

TEST_F(ChargeScopeTest, MetaStoreCacheHitsAndFailureRetry) {
  AsklMetaStoreCache& cache = AsklMetaStoreCache::Instance();
  cache.Clear();

  int builds = 0;
  auto builder = [&builds]() -> Result<AsklMetaStoreCache::Entry> {
    ++builds;
    AsklMetaStoreCache::Entry entry;
    entry.development_kwh = 1.25;
    return entry;
  };

  auto first = cache.GetOrBuild("key-a", builder);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrBuild("key-a", builder);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // A cache hit reports exactly the energy a fresh build would have.
  EXPECT_EQ(first->development_kwh, second->development_kwh);

  // Failed builds are not memoized: the next caller retries.
  int failures = 0;
  auto failing = [&failures]() -> Result<AsklMetaStoreCache::Entry> {
    ++failures;
    return Status::Internal("boom");
  };
  EXPECT_FALSE(cache.GetOrBuild("key-b", failing).ok());
  EXPECT_FALSE(cache.GetOrBuild("key-b", failing).ok());
  EXPECT_EQ(failures, 2);
  cache.Clear();
}

TEST_F(ChargeScopeTest, RunnersShareOneMetaStoreBuild) {
  AsklMetaStoreCache::Instance().Clear();
  ExperimentConfig config;
  config.dataset_limit = 1;
  config.budget_scale = 0.05;

  ExperimentRunner first(config);
  ExperimentRunner second(config);
  const Dataset& dataset = first.suite()[0];

  RunRecord a = first.RunCell("autosklearn2", dataset, 60.0, 0);
  ASSERT_TRUE(a.ok()) << a.error;
  const size_t misses_after_first = AsklMetaStoreCache::Instance().misses();

  RunRecord b = second.RunCell("autosklearn2", dataset, 60.0, 0);
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(AsklMetaStoreCache::Instance().misses(), misses_after_first);
  EXPECT_GE(AsklMetaStoreCache::Instance().hits(), 1u);

  // Identical development energy reported, and identical measurements:
  // a cache hit is observationally equivalent to a fresh build.
  EXPECT_EQ(first.development_kwh(), second.development_kwh());
  EXPECT_EQ(RecordToJson(a), RecordToJson(b));
}

// --- Journal compaction ----------------------------------------------

RunRecord MakeRecord(const std::string& system, const std::string& dataset,
                     double budget, int rep, double kwh) {
  RunRecord r;
  r.system = system;
  r.dataset = dataset;
  r.paper_budget_seconds = budget;
  r.repetition = rep;
  r.execution_kwh = kwh;
  return r;
}

TEST_F(ChargeScopeTest, CompactJournalKeepsLastRecordPerCell) {
  const std::string path = ::testing::TempDir() + "/journal.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(
      AppendRecordJsonl(MakeRecord("caml", "d1", 10.0, 0, 1.0), path).ok());
  ASSERT_TRUE(
      AppendRecordJsonl(MakeRecord("flaml", "d1", 10.0, 0, 2.0), path).ok());
  ASSERT_TRUE(  // Supersedes the first record (same cell key).
      AppendRecordJsonl(MakeRecord("caml", "d1", 10.0, 0, 3.0), path).ok());

  auto removed = CompactJournalJsonl(path);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);

  auto journal = ReadJournal(path);
  ASSERT_TRUE(journal.ok());
  const std::vector<RunRecord>& records = journal->records;
  ASSERT_EQ(records.size(), 2u);
  // First-appearance order, last-write-wins content.
  EXPECT_EQ(records[0].system, "caml");
  EXPECT_DOUBLE_EQ(records[0].execution_kwh, 3.0);
  EXPECT_EQ(records[1].system, "flaml");

  // Idempotent: a second compaction removes nothing.
  auto again = CompactJournalJsonl(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  std::remove(path.c_str());
}

// --- RunRecord scope surface -----------------------------------------

TEST_F(ChargeScopeTest, RecordScopesRoundTripByteExactly) {
  RunRecord record = MakeRecord("caml", "d1", 30.0, 1, 0.5);
  record.scopes.push_back(
      {"execution/caml/search/pipeline/fit/random_forest", 1.25e-4,
       0.75, 3.5e9, 42});
  record.scopes.push_back({"inference/caml/blend", 2e-9, 1e-6, 1.5e4, 7});

  const std::string json = RecordToJson(record);
  EXPECT_NE(json.find("\"scopes\":["), std::string::npos);
  auto parsed = RecordFromJson(json);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->scopes.size(), 2u);
  EXPECT_EQ(parsed->scopes[0].path,
            "execution/caml/search/pipeline/fit/random_forest");
  EXPECT_EQ(parsed->scopes[1].charges, 7u);
  EXPECT_EQ(RecordToJson(*parsed), json);

  // Without scopes the serialization has no "scopes" field at all, so
  // default record streams stay byte-identical to earlier releases.
  record.scopes.clear();
  EXPECT_EQ(RecordToJson(record).find("\"scopes\""), std::string::npos);
}

TEST_F(ChargeScopeTest, RenderEnergyBreakdownReportsBaselineAndTotal) {
  ExperimentConfig config;
  config.dataset_limit = 1;
  config.budget_scale = 0.05;
  config.collect_scopes = true;
  ExperimentRunner runner(config);
  auto record = runner.RunOne("caml", runner.suite()[0], 60.0, 0);
  ASSERT_TRUE(record.ok());

  const std::string table = RenderEnergyBreakdown({*record});
  ASSERT_FALSE(table.empty());
  EXPECT_NE(table.find("(baseline: static+idle)"), std::string::npos);
  EXPECT_NE(table.find("100.0%"), std::string::npos);
  EXPECT_NE(table.find("pipeline/fit/"), std::string::npos)
      << "expected a per-operator row in:\n" << table;

  // Without scope data the breakdown renders nothing.
  RunRecord bare = *record;
  bare.scopes.clear();
  EXPECT_TRUE(RenderEnergyBreakdown({bare}).empty());
}

}  // namespace
}  // namespace green
