// Integration tests asserting the paper's headline observations O1-O4 as
// *shape* properties of the reproduction (who wins, direction of effects)
// on a reduced suite, mirroring DESIGN.md's validation strategy.

#include <gtest/gtest.h>

#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/table/split.h"

namespace green {
namespace {

class ObservationsTest : public ::testing::Test {
 protected:
  static ExperimentRunner& SharedRunner() {
    static ExperimentRunner* runner = [] {
      ExperimentConfig config;
      config.dataset_limit = 4;
      config.repetitions = 2;
      config.seed = 11;
      return new ExperimentRunner(config);
    }();
    return *runner;
  }

  static double MeanMetric(
      const std::vector<RunRecord>& records, const std::string& system,
      double budget, double (*metric)(const RunRecord&)) {
    std::vector<double> values;
    for (const RunRecord& r : Filter(records, system, budget)) {
      values.push_back(metric(r));
    }
    EXPECT_FALSE(values.empty()) << system << "@" << budget;
    return ComputeStats(values).mean;
  }
};

TEST_F(ObservationsTest, O1EnsemblesCostMoreAtInference) {
  // O1: systems with ensembling (AutoGluon, ASKL) need at least an order
  // of magnitude more inference energy than single-model CAML(tuned) /
  // FLAML output.
  auto records = SharedRunner().Sweep(
      {"autogluon", "autosklearn1", "flaml", "caml_tuned"}, {300.0});
  ASSERT_TRUE(records.ok());
  auto inference = [](const RunRecord& r) {
    return r.inference_kwh_per_instance;
  };
  const double gluon = MeanMetric(*records, "autogluon", 300.0, inference);
  const double askl =
      MeanMetric(*records, "autosklearn1", 300.0, inference);
  const double flaml = MeanMetric(*records, "flaml", 300.0, inference);
  const double tuned =
      MeanMetric(*records, "caml_tuned", 300.0, inference);
  EXPECT_GT(gluon, 5.0 * flaml);
  EXPECT_GT(askl, 2.0 * flaml);
  EXPECT_GT(gluon, 5.0 * tuned);
}

TEST_F(ObservationsTest, O2TabPfnCheapExecutionExpensiveInference) {
  // O2's mechanism: TabPFN spends near-zero energy executing but far more
  // than single-model systems per prediction, so it only wins for few
  // predictions.
  auto records =
      SharedRunner().Sweep({"tabpfn", "flaml", "caml"}, {30.0});
  ASSERT_TRUE(records.ok());
  auto execution = [](const RunRecord& r) { return r.execution_kwh; };
  auto inference = [](const RunRecord& r) {
    return r.inference_kwh_per_instance;
  };
  const double tabpfn_exec = MeanMetric(*records, "tabpfn", 30.0,
                                        execution);
  const double flaml_exec = MeanMetric(*records, "flaml", 30.0, execution);
  const double tabpfn_infer =
      MeanMetric(*records, "tabpfn", 30.0, inference);
  const double flaml_infer =
      MeanMetric(*records, "flaml", 30.0, inference);
  EXPECT_LT(tabpfn_exec, 0.1 * flaml_exec);
  EXPECT_GT(tabpfn_infer, 10.0 * flaml_infer);

  // Crossover: below some prediction volume TabPFN's total energy is the
  // lowest; beyond it the cheap-inference searchers win. The crossover
  // position scales with the simulation profile (the paper reports ~26k
  // at testbed scale); its EXISTENCE is the invariant we assert.
  const double few = 3.0;
  const double many = 1e7;
  const double tabpfn_few = tabpfn_exec + few * tabpfn_infer;
  const double flaml_few = flaml_exec + few * flaml_infer;
  const double tabpfn_many = tabpfn_exec + many * tabpfn_infer;
  const double flaml_many = flaml_exec + many * flaml_infer;
  EXPECT_LT(tabpfn_few, flaml_few);
  EXPECT_GT(tabpfn_many, flaml_many);
}

TEST_F(ObservationsTest, O2TunedCamlWinsWithDevelopmentInvestment) {
  // O2 second half / Fig. 7: the tuned CAML reaches at least the accuracy
  // of default CAML without spending more execution energy.
  auto records = SharedRunner().Sweep({"caml", "caml_tuned"}, {30.0});
  ASSERT_TRUE(records.ok());
  auto accuracy = [](const RunRecord& r) {
    return r.test_balanced_accuracy;
  };
  auto execution = [](const RunRecord& r) { return r.execution_kwh; };
  EXPECT_GE(MeanMetric(*records, "caml_tuned", 30.0, accuracy) + 0.03,
            MeanMetric(*records, "caml", 30.0, accuracy));
  EXPECT_LE(MeanMetric(*records, "caml_tuned", 30.0, execution),
            MeanMetric(*records, "caml", 30.0, execution) * 1.1);
}

TEST_F(ObservationsTest, O3InferenceConstraintsSaveEnergy) {
  // O3: constraining inference time lets CAML trade accuracy for
  // inference energy.
  ExperimentRunner& runner = SharedRunner();
  const Dataset& dataset = runner.suite()[1];
  auto free_run = runner.RunOne("caml", dataset, 30.0, 0);
  ASSERT_TRUE(free_run.ok());

  // Re-run with a constraint through a dedicated context.
  auto system = runner.MakeSystem("caml", 30.0);
  ASSERT_TRUE(system.ok());
  EnergyModel model(runner.config().machine);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  Rng rng(1);
  TrainTestData data =
      Materialize(dataset, StratifiedSplit(dataset, 0.66, &rng));
  AutoMlOptions options;
  options.search_budget_seconds =
      30.0 * runner.config().budget_scale;
  options.seed = 1;
  options.max_inference_seconds_per_row = 3e-4;
  auto constrained = (*system)->Fit(data.train, options, &ctx);
  ASSERT_TRUE(constrained.ok());
  EXPECT_LE(constrained->artifact.InferenceFlopsPerRow(
                dataset.num_features()),
            3e-4 * runner.config().machine.cpu_flops_per_core * 1.05);
}

TEST_F(ObservationsTest, O4ParallelismShapes) {
  // O4: for budget-filling sequential CAML, more cores cost more energy
  // (sublinearly); for fixed-workload AutoGluon, more cores reduce wall
  // time without an energy penalty. Averaged over the reduced suite.
  ExperimentRunner& runner = SharedRunner();

  auto mean_for = [&](const std::string& system, int cores,
                      double (*metric)(const RunRecord&)) {
    SweepVariant variant;
    variant.cores = cores;
    std::vector<double> values;
    for (const Dataset& dataset : runner.suite()) {
      for (int rep = 0; rep < 2; ++rep) {
        auto record = runner.RunOne(system, dataset, 30.0, rep,
                                    /*cancel=*/nullptr, /*attempt=*/1,
                                    &variant);
        if (record.ok()) values.push_back(metric(*record));
      }
    }
    EXPECT_FALSE(values.empty());
    return ComputeStats(values).mean;
  };
  auto kwh = [](const RunRecord& r) { return r.execution_kwh; };
  auto secs = [](const RunRecord& r) { return r.execution_seconds; };

  const double caml_1 = mean_for("caml", 1, kwh);
  const double caml_8 = mean_for("caml", 8, kwh);
  EXPECT_GT(caml_8, caml_1 * 1.02);  // More cores cost more energy...
  EXPECT_LT(caml_8, caml_1 * 6.0);   // ...but far sublinearly.

  const double gluon_secs_1 = mean_for("autogluon", 1, secs);
  const double gluon_secs_8 = mean_for("autogluon", 8, secs);
  const double gluon_kwh_1 = mean_for("autogluon", 1, kwh);
  const double gluon_kwh_8 = mean_for("autogluon", 8, kwh);
  EXPECT_LT(gluon_secs_8, gluon_secs_1);
  EXPECT_LT(gluon_kwh_8, gluon_kwh_1 * 1.05);
}

TEST_F(ObservationsTest, BudgetAdherenceShapesMatchTable7) {
  auto records = SharedRunner().Sweep(
      {"tabpfn", "caml", "flaml", "autosklearn1"}, {30.0});
  ASSERT_TRUE(records.ok());
  auto seconds = [](const RunRecord& r) { return r.execution_seconds; };
  const double tabpfn = MeanMetric(*records, "tabpfn", 30.0, seconds);
  const double caml = MeanMetric(*records, "caml", 30.0, seconds);
  const double flaml = MeanMetric(*records, "flaml", 30.0, seconds);
  const double askl =
      MeanMetric(*records, "autosklearn1", 30.0, seconds);
  // Table 7 row order at 30 s: TabPFN < CAML <= FLAML < ASKL1.
  EXPECT_LT(tabpfn, 5.0);
  EXPECT_LE(caml, flaml * 1.15);
  EXPECT_GT(askl, caml);
}

TEST_F(ObservationsTest, AccuracyImprovesWithBudgetForSearchers) {
  auto records = SharedRunner().Sweep({"caml"}, {10.0, 300.0});
  ASSERT_TRUE(records.ok());
  auto accuracy = [](const RunRecord& r) {
    return r.test_balanced_accuracy;
  };
  EXPECT_GE(MeanMetric(*records, "caml", 300.0, accuracy) + 0.05,
            MeanMetric(*records, "caml", 10.0, accuracy));
}

}  // namespace
}  // namespace green
