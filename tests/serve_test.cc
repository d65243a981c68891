// Tests for the serving layer: trace generation/loading, the artifact
// degrade ladder, admission control and shedding, deadline policies,
// per-request energy SLOs, fault injection at the serve.* sites, the
// GREEN_SERVE_* environment overrides, and — above all — the request
// conservation invariant: every arrival reaches exactly one terminal
// outcome and per-request Joules sum to the metered total, under every
// policy/fault combination.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "green/automl/fitted_artifact.h"
#include "green/common/fault.h"
#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/ml/model_registry.h"
#include "green/serve/artifact_ladder.h"
#include "green/serve/inference_server.h"
#include "green/serve/request_stream.h"
#include "green/serve/serve_policy.h"
#include "green/sim/execution_context.h"

namespace green {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : model_(MachineModel::Minimal()) {
    SyntheticSpec spec;
    spec.name = "serve";
    spec.num_rows = 200;
    spec.num_features = 8;
    spec.num_informative = 8;
    spec.num_classes = 3;
    spec.separation = 3.0;
    spec.seed = 6;
    data_ = GenerateSynthetic(spec).value();
  }

  std::shared_ptr<Pipeline> FitConfig(const std::string& model,
                                      uint64_t seed = 1) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model_, 1);
    PipelineConfig config;
    config.model = model;
    config.seed = seed;
    auto pipeline = BuildPipeline(config);
    EXPECT_TRUE(pipeline.ok());
    EXPECT_TRUE(pipeline->Fit(data_, &ctx).ok());
    return std::make_shared<Pipeline>(std::move(pipeline).value());
  }

  /// A two-member weighted ensemble: enough structure for a full ->
  /// single -> constant ladder. The decision tree carries the higher
  /// weight, so it is the distilled single tier.
  FittedArtifact WeightedArtifact() {
    FittedArtifact::Member a;
    a.folds.push_back(FitConfig("naive_bayes", 1));
    a.weight = 1.0;
    FittedArtifact::Member b;
    b.folds.push_back(FitConfig("decision_tree", 2));
    b.weight = 2.0;
    return FittedArtifact::Weighted({std::move(a), std::move(b)});
  }

  ArtifactLadder BuildLadder() {
    auto ladder = ArtifactLadder::Build(WeightedArtifact(), data_, &model_);
    EXPECT_TRUE(ladder.ok());
    return std::move(ladder).value();
  }

  ServeReport MustReplay(const ServePolicy& policy,
                         const std::vector<ServeRequest>& trace,
                         const FaultInjector* faults = nullptr) {
    InferenceServer server(BuildLadder(), data_, &model_, policy, faults);
    auto report = server.Replay(trace);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    const Status conserved = report->CheckConservation();
    EXPECT_TRUE(conserved.ok()) << conserved.ToString();
    return std::move(report).value();
  }

  EnergyModel model_;
  Dataset data_;
};

// --- Trace generation -------------------------------------------------

TEST_F(ServeTest, GeneratedTraceIsDeterministicSortedAndBounded) {
  TraceSpec spec;
  spec.kind = TraceSpec::Kind::kDiurnal;
  spec.duration_seconds = 20.0;
  spec.rate_rps = 15.0;
  const std::vector<ServeRequest> a = GenerateTrace(spec, 100);
  const std::vector<ServeRequest> b = GenerateTrace(spec, 100);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_LT(a[i].row, 100u);
    EXPECT_LT(a[i].arrival_seconds, spec.duration_seconds);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
  }
}

TEST_F(ServeTest, BurstTraceCarriesMoreArrivalsThanConstant) {
  TraceSpec constant;
  constant.kind = TraceSpec::Kind::kConstant;
  constant.duration_seconds = 10.0;
  constant.rate_rps = 20.0;
  TraceSpec burst = constant;
  burst.kind = TraceSpec::Kind::kBurst;  // 10% of time at 10x the rate.
  EXPECT_GT(GenerateTrace(burst, 50).size(),
            GenerateTrace(constant, 50).size());
}

TEST_F(ServeTest, EmptySpecsYieldEmptyTraces) {
  TraceSpec spec;
  spec.rate_rps = 0.0;
  EXPECT_TRUE(GenerateTrace(spec, 10).empty());
  spec.rate_rps = 5.0;
  EXPECT_TRUE(GenerateTrace(spec, 0).empty());
}

TEST_F(ServeTest, TraceCsvParsesCommentsRowsAndSorts) {
  const std::string path = ::testing::TempDir() + "/trace.csv";
  {
    std::ofstream out(path);
    out << "# comment line\n"
        << "0.5, 3\n"
        << "\n"
        << "0.25\n"
        << "1.0,999\n";
  }
  auto trace = LoadTraceCsv(path, 10);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->size(), 3u);
  EXPECT_DOUBLE_EQ((*trace)[0].arrival_seconds, 0.25);
  EXPECT_DOUBLE_EQ((*trace)[1].arrival_seconds, 0.5);
  EXPECT_EQ((*trace)[1].row, 3u);
  EXPECT_DOUBLE_EQ((*trace)[2].arrival_seconds, 1.0);
  EXPECT_EQ((*trace)[2].row, 999u % 10u);
  std::remove(path.c_str());
}

TEST_F(ServeTest, TraceCsvRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/bad_trace.csv";
  for (const char* body : {"abc\n", "-1.0\n", "0.5,3,junk\n", "0.5,-2\n",
                           "inf\n", "infinity,1\n"}) {
    std::ofstream(path) << body;
    EXPECT_FALSE(LoadTraceCsv(path, 10).ok()) << body;
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, TraceCsvReadErrorIsIoError) {
  // A directory opens as a stream but every read of it fails.
  const auto trace = LoadTraceCsv(::testing::TempDir(), 10);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), Status::Code::kIoError);
}

// --- Artifact ladder --------------------------------------------------

TEST_F(ServeTest, LadderTiersAreOrderedCheapestLast) {
  const ArtifactLadder ladder = BuildLadder();
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder.tier(0).name, "full");
  EXPECT_EQ(ladder.tier(1).name, "single");
  EXPECT_EQ(ladder.tier(2).name, "constant");
  EXPECT_FALSE(ladder.tier(0).IsConstant());
  EXPECT_TRUE(ladder.tier(2).IsConstant());
  // Probed per-row cost strictly falls down the ladder — that is the
  // whole point of degrading.
  EXPECT_GT(ladder.tier(0).est_joules_per_row,
            ladder.tier(1).est_joules_per_row);
  EXPECT_GT(ladder.tier(1).est_joules_per_row,
            ladder.tier(2).est_joules_per_row);
  EXPECT_GT(ladder.tier(2).est_joules_per_row, 0.0);
}

TEST_F(ServeTest, SinglePipelineArtifactSkipsTheSingleTier) {
  const FittedArtifact single =
      FittedArtifact::Single(FitConfig("decision_tree"));
  auto ladder = ArtifactLadder::Build(single, data_, &model_);
  ASSERT_TRUE(ladder.ok());
  ASSERT_EQ(ladder->size(), 2u);
  EXPECT_EQ(ladder->tier(0).name, "full");
  EXPECT_EQ(ladder->tier(1).name, "constant");
}

TEST_F(ServeTest, ConstantTierPredictsClassPriors) {
  const ArtifactLadder ladder = BuildLadder();
  const ArtifactTier& constant = ladder.tier(2);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model_, 1);
  const Dataset batch = data_.Subset({0, 1, 2});
  auto proba = constant.PredictProba(batch, &ctx);
  ASSERT_TRUE(proba.ok());
  ASSERT_EQ(proba->size(), 3u);
  for (const std::vector<double>& row : *proba) {
    ASSERT_EQ(row.size(), constant.constant_proba.size());
    double sum = 0.0;
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_DOUBLE_EQ(row[c], constant.constant_proba[c]);
      sum += row[c];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(clock.Now(), 0.0);  // Even the constant tier charges work.
}

// --- Admission control and shedding -----------------------------------

std::vector<ServeRequest> SimultaneousArrivals(size_t n) {
  std::vector<ServeRequest> trace(n);
  for (size_t i = 0; i < n; ++i) trace[i].row = i;
  return trace;
}

TEST_F(ServeTest, ShedNewestRejectsTheLateArrivals) {
  ServePolicy policy;
  policy.queue_capacity = 1;
  policy.max_batch = 1;
  policy.batch_delay_seconds = 0.0;
  policy.shed = ServePolicy::ShedPolicy::kNewest;
  const ServeReport report = MustReplay(policy, SimultaneousArrivals(10));
  EXPECT_EQ(report.rejected, 9u);
  EXPECT_EQ(report.completed, 1u);
  // Tail drop: the request that arrived first is the one that survives.
  EXPECT_EQ(report.results[0].outcome, RequestOutcome::kCompleted);
}

TEST_F(ServeTest, ShedOldestEvictsTheQueueHead) {
  ServePolicy policy;
  policy.queue_capacity = 1;
  policy.max_batch = 1;
  policy.batch_delay_seconds = 0.0;
  policy.shed = ServePolicy::ShedPolicy::kOldest;
  const ServeReport report = MustReplay(policy, SimultaneousArrivals(10));
  EXPECT_EQ(report.rejected, 9u);
  EXPECT_EQ(report.completed, 1u);
  // Head drop: each newcomer evicts its predecessor; the last survives.
  EXPECT_EQ(report.results[9].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(report.results[0].outcome, RequestOutcome::kRejected);
}

// --- Deadline policies ------------------------------------------------

std::vector<ServeRequest> SteadyTrace(size_t n, double gap, size_t rows) {
  std::vector<ServeRequest> trace(n);
  for (size_t i = 0; i < n; ++i) {
    trace[i].arrival_seconds = static_cast<double>(i) * gap;
    trace[i].row = i % rows;
  }
  return trace;
}

TEST_F(ServeTest, StrictPolicyFailsRequestsPastTheirDeadline) {
  ServePolicy policy;
  policy.deadline_seconds = 1e-6;  // Infeasible for any artifact tier.
  policy.on_deadline = ServePolicy::DeadlineAction::kFail;
  const ServeReport report =
      MustReplay(policy, SteadyTrace(40, 0.002, data_.num_rows()));
  EXPECT_GT(report.deadline_exceeded, 0u);
  EXPECT_EQ(report.degraded, 0u);
}

TEST_F(ServeTest, DegradePolicyAnswersFromCheaperTiers) {
  ServePolicy policy;
  policy.deadline_seconds = 1e-6;
  policy.on_deadline = ServePolicy::DeadlineAction::kDegrade;
  const ServeReport report =
      MustReplay(policy, SteadyTrace(40, 0.002, data_.num_rows()));
  // Every request still gets an answer — from a cheaper rung.
  EXPECT_EQ(report.deadline_exceeded, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_GT(report.degraded, 0u);
  EXPECT_EQ(report.completed + report.degraded, report.arrived);
  for (const RequestResult& r : report.results) {
    if (r.outcome == RequestOutcome::kDegraded) {
      EXPECT_NE(r.tier, "full");
      EXPECT_GE(r.predicted_class, 0);
    }
  }
}

TEST_F(ServeTest, EnergySloPreselectsACheaperTier) {
  const std::vector<ServeRequest> trace =
      SteadyTrace(40, 0.002, data_.num_rows());
  ServePolicy baseline;
  const ServeReport unconstrained = MustReplay(baseline, trace);

  ServePolicy slo = baseline;
  // Only the constant tier fits this budget.
  slo.energy_slo_joules = 1e-12;
  const ServeReport capped = MustReplay(slo, trace);
  // SLO-preselected requests count as completed: the SLO *is* the
  // requested service level.
  EXPECT_EQ(capped.completed, capped.arrived);
  EXPECT_LT(capped.total_joules, unconstrained.total_joules);
  for (const RequestResult& r : capped.results) {
    EXPECT_EQ(r.tier, "constant");
  }
}

// --- Fault injection at the serve.* sites -----------------------------

TEST_F(ServeTest, AdmitFaultRejectsEveryRequest) {
  const FaultInjector faults = FaultInjector::Lenient("serve.admit@1", 7);
  ServePolicy policy;
  const ServeReport report = MustReplay(
      policy, SteadyTrace(20, 0.001, data_.num_rows()), &faults);
  EXPECT_EQ(report.rejected, report.arrived);
  EXPECT_EQ(report.admitted, 0u);
  // Rejected requests still carry their admission-check energy.
  EXPECT_GT(report.total_joules, 0.0);
}

TEST_F(ServeTest, SinglePredictFaultDegradesOneBatch) {
  const FaultInjector faults =
      FaultInjector::Lenient("serve.predict#1", 7);
  ServePolicy policy;
  const ServeReport report = MustReplay(
      policy, SteadyTrace(20, 0.001, data_.num_rows()), &faults);
  // The first batch fell one rung; everything else served at full tier.
  EXPECT_GT(report.degraded, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.completed + report.degraded, report.arrived);
}

TEST_F(ServeTest, PersistentBatchFaultFailsAfterRetries) {
  const FaultInjector faults = FaultInjector::Lenient("serve.batch@1", 7);
  ServePolicy policy;
  const ServeReport report = MustReplay(
      policy, SteadyTrace(20, 0.001, data_.num_rows()), &faults);
  EXPECT_EQ(report.rejected, report.arrived);
  // Admission succeeded — the batches failed after dispatch retries.
  EXPECT_EQ(report.admitted, report.arrived);
  EXPECT_EQ(report.rejected_unserved, 0u);
}

TEST_F(ServeTest, ConservationHoldsAcrossPolicyAndFaultMatrix) {
  const std::vector<ServeRequest> trace =
      SteadyTrace(30, 0.0015, data_.num_rows());
  std::vector<ServePolicy> policies(5);
  policies[1].deadline_seconds = 0.005;
  policies[2].deadline_seconds = 0.001;
  policies[2].on_deadline = ServePolicy::DeadlineAction::kDegrade;
  policies[3].energy_slo_joules = 1e-5;
  policies[4].queue_capacity = 2;
  policies[4].shed = ServePolicy::ShedPolicy::kOldest;
  const std::vector<std::string> fault_specs = {
      "", "serve.admit@0.3", "serve.predict@0.4", "serve.batch#2",
      "serve.admit@0.2,serve.batch@0.1,serve.predict@0.3"};
  for (size_t p = 0; p < policies.size(); ++p) {
    for (const std::string& spec : fault_specs) {
      SCOPED_TRACE(StrFormat("policy %zu faults '%s'", p, spec.c_str()));
      const FaultInjector faults = FaultInjector::Lenient(spec, 11);
      // MustReplay asserts CheckConservation internally.
      const ServeReport report = MustReplay(policies[p], trace, &faults);
      EXPECT_EQ(report.arrived, trace.size());
    }
  }
}

// --- Replay surface ---------------------------------------------------

TEST_F(ServeTest, ReplayIsDeterministic) {
  ServePolicy policy;
  policy.deadline_seconds = 0.004;
  policy.on_deadline = ServePolicy::DeadlineAction::kDegrade;
  const std::vector<ServeRequest> trace =
      SteadyTrace(25, 0.002, data_.num_rows());
  const FaultInjector faults =
      FaultInjector::Lenient("serve.predict@0.2", 3);
  const ServeReport a = MustReplay(policy, trace, &faults);
  const ServeReport b = MustReplay(policy, trace, &faults);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_DOUBLE_EQ(a.total_joules, b.total_joules);
  EXPECT_LE(a.LatencyPercentile(0.50), a.LatencyPercentile(0.95));
  EXPECT_LE(a.LatencyPercentile(0.95), a.LatencyPercentile(0.99));
}

TEST_F(ServeTest, UnsortedTraceIsRejected) {
  std::vector<ServeRequest> trace(2);
  trace[0].arrival_seconds = 1.0;
  trace[1].arrival_seconds = 0.5;
  ServePolicy policy;
  InferenceServer server(BuildLadder(), data_, &model_, policy);
  EXPECT_FALSE(server.Replay(trace).ok());
}

}  // namespace
}  // namespace green
