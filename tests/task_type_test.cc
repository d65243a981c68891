// TaskType plumbing: names and the class-count mapping, the per-task
// splitter and primary-metric dispatch, the higher-is-better score adapter,
// regression dataset/CSV round trips, the synthetic regression
// generator's determinism, and which model families admit which tasks.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "green/common/rng.h"
#include "green/data/synthetic.h"
#include "green/energy/machine_model.h"
#include "green/ml/metrics.h"
#include "green/ml/model_registry.h"
#include "green/sim/execution_context.h"
#include "green/sim/virtual_clock.h"
#include "green/table/csv.h"
#include "green/table/dataset.h"
#include "green/table/split.h"
#include "green/table/task_type.h"

namespace green {
namespace {

// --- Task names and class counts --------------------------------------

TEST(TaskTypeTest, NamesRoundTrip) {
  for (TaskType task : {TaskType::kBinary, TaskType::kMulticlass,
                        TaskType::kRegression}) {
    auto parsed = ParseTaskType(TaskTypeName(task));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, task);
  }
  EXPECT_FALSE(ParseTaskType("ordinal").ok());
  EXPECT_FALSE(ParseTaskType("").ok());
}

TEST(TaskTypeTest, ClassCountsImplyTask) {
  EXPECT_EQ(TaskTypeForClasses(1), TaskType::kBinary);
  EXPECT_EQ(TaskTypeForClasses(2), TaskType::kBinary);
  EXPECT_EQ(TaskTypeForClasses(3), TaskType::kMulticlass);
  EXPECT_EQ(TaskTypeForClasses(17), TaskType::kMulticlass);
}

// --- Regression dataset invariants -------------------------------------

TEST(RegressionDatasetTest, FactorySetsTaskAndGuardsAppend) {
  Dataset data = Dataset::Regression("house_prices", 3);
  EXPECT_EQ(data.task(), TaskType::kRegression);
  EXPECT_EQ(data.num_classes(), 1);
  ASSERT_TRUE(data.AppendTargetRow({1.0, 2.0, 3.0}, 41.5).ok());
  ASSERT_TRUE(data.AppendTargetRow({2.0, 1.0, 0.0}, 38.5).ok());
  EXPECT_DOUBLE_EQ(data.TargetMean(), 40.0);
  EXPECT_DOUBLE_EQ(data.Target(1), 38.5);
  // Label-style appends are a typed error, never a silent cast.
  EXPECT_FALSE(data.AppendRow({1.0, 2.0, 3.0}, 1).ok());

  Dataset classification("spam", 3, 2);
  EXPECT_EQ(classification.task(), TaskType::kBinary);
  EXPECT_FALSE(classification.AppendTargetRow({1.0, 2.0, 3.0}, 0.5).ok());
}

// --- Splitter dispatch --------------------------------------------------

TEST(SplitDispatchTest, ClassificationSplitMatchesStratifiedExactly) {
  SyntheticSpec spec;
  spec.name = "clf";
  spec.num_rows = 120;
  spec.num_features = 6;
  spec.num_classes = 3;
  spec.seed = 5;
  const Dataset data = GenerateSynthetic(spec).value();

  Rng rng_a(7), rng_b(7);
  const TrainTestIndices dispatched = SplitForTask(data, 0.7, &rng_a);
  const TrainTestIndices stratified = StratifiedSplit(data, 0.7, &rng_b);
  EXPECT_EQ(dispatched.train, stratified.train);
  EXPECT_EQ(dispatched.test, stratified.test);
  // Identical RNG consumption too: the next draw must agree.
  EXPECT_EQ(rng_a.NextBounded(1u << 30), rng_b.NextBounded(1u << 30));
}

TEST(SplitDispatchTest, RegressionSplitMatchesPlainAndCoversAllRows) {
  SyntheticRegressionSpec spec;
  spec.name = "reg";
  spec.num_rows = 100;
  spec.num_features = 5;
  spec.seed = 5;
  const Dataset data = GenerateSyntheticRegression(spec).value();

  Rng rng_a(7), rng_b(7);
  const TrainTestIndices dispatched = SplitForTask(data, 0.7, &rng_a);
  const TrainTestIndices plain = PlainSplit(data, 0.7, &rng_b);
  EXPECT_EQ(dispatched.train, plain.train);
  EXPECT_EQ(dispatched.test, plain.test);
  EXPECT_EQ(dispatched.train.size() + dispatched.test.size(),
            data.num_rows());

  Rng rng_c(9), rng_d(9);
  const auto folds = KFoldForTask(data, 4, &rng_c);
  const auto plain_folds = PlainKFold(data, 4, &rng_d);
  EXPECT_EQ(folds, plain_folds);
}

// --- Regression metrics and the score adapter ---------------------------

TEST(RegressionMetricsTest, HandComputedValues) {
  const std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> pred = {1.5, 2.0, 2.5, 5.0};
  EXPECT_NEAR(Rmse(truth, pred), std::sqrt((0.25 + 0.0 + 0.25 + 1.0) / 4),
              1e-12);
  // R2 = 1 - SSE/SST; SST around the truth mean 2.5 is 5.0.
  EXPECT_NEAR(R2(truth, pred), 1.0 - 1.5 / 5.0, 1e-12);
}

TEST(RegressionMetricsTest, PerfectPrediction) {
  const std::vector<double> truth = {3.0, -1.0, 7.0};
  const std::vector<double> pred = {3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(Rmse(truth, pred), 0.0);
  EXPECT_DOUBLE_EQ(R2(truth, pred), 1.0);
}

TEST(MetricDispatchTest, PrimaryMetricNames) {
  EXPECT_STREQ(PrimaryMetricName(TaskType::kBinary), "balanced_accuracy");
  EXPECT_STREQ(PrimaryMetricName(TaskType::kMulticlass),
               "balanced_accuracy");
  EXPECT_STREQ(PrimaryMetricName(TaskType::kRegression), "rmse");
}

TEST(MetricDispatchTest, ClassificationPrimaryIsBalancedAccuracy) {
  for (int classes : {2, 4}) {
    SyntheticSpec spec;
    spec.name = "clf";
    spec.num_rows = 90;
    spec.num_features = 6;
    spec.num_classes = classes;
    spec.seed = 11;
    const Dataset data = GenerateSynthetic(spec).value();
    // A one-hot "prediction" of the true labels scores 1.0 on both the
    // metric and the score side.
    ProbaMatrix proba(data.num_rows(),
                      std::vector<double>(data.num_classes(), 0.0));
    for (size_t i = 0; i < data.num_rows(); ++i) {
      proba[i][static_cast<size_t>(data.Label(i))] = 1.0;
    }
    EXPECT_DOUBLE_EQ(PrimaryMetric(data, proba), 1.0);
    EXPECT_DOUBLE_EQ(PrimaryScore(data, proba), 1.0);

    std::vector<int> argmax_preds(data.num_rows());
    for (size_t i = 0; i < data.num_rows(); ++i) {
      argmax_preds[i] = data.Label(i);
    }
    EXPECT_DOUBLE_EQ(
        BalancedAccuracy(data.labels(), argmax_preds, data.num_classes()),
        PrimaryMetric(data, proba));
  }
}

TEST(MetricDispatchTest, RegressionPrimaryIsRmseAndScoreIsNegated) {
  Dataset data = Dataset::Regression("reg", 1);
  ASSERT_TRUE(data.AppendTargetRow({0.0}, 1.0).ok());
  ASSERT_TRUE(data.AppendTargetRow({0.0}, 3.0).ok());
  const ProbaMatrix pred = {{2.0}, {2.0}};

  const double rmse = Rmse(data.targets(), {2.0, 2.0});
  EXPECT_DOUBLE_EQ(PrimaryMetric(data, pred), rmse);
  EXPECT_DOUBLE_EQ(PrimaryScore(data, pred), -rmse);
  // The adapter makes "higher is better" hold for every task, and
  // MetricFromScore inverts it back to the reported metric.
  EXPECT_GT(PrimaryScore(data, {{1.0}, {3.0}}),
            PrimaryScore(data, pred));
  EXPECT_DOUBLE_EQ(
      MetricFromScore(TaskType::kRegression, PrimaryScore(data, pred)),
      rmse);
  EXPECT_DOUBLE_EQ(MetricFromScore(TaskType::kBinary, 0.75), 0.75);
}

// --- Synthetic regression generator -------------------------------------

TEST(SyntheticRegressionTest, DeterministicInSeed) {
  SyntheticRegressionSpec spec;
  spec.name = "reg";
  spec.num_rows = 60;
  spec.num_features = 7;
  spec.num_categorical = 2;
  spec.seed = 33;
  const Dataset a = GenerateSyntheticRegression(spec).value();
  const Dataset b = GenerateSyntheticRegression(spec).value();
  EXPECT_EQ(ToCsvString(a), ToCsvString(b));

  spec.seed = 34;
  const Dataset c = GenerateSyntheticRegression(spec).value();
  EXPECT_NE(ToCsvString(a), ToCsvString(c));
}

TEST(SyntheticRegressionTest, ShapeAndTask) {
  SyntheticRegressionSpec spec;
  spec.name = "reg";
  spec.num_rows = 50;
  spec.num_features = 6;
  spec.num_categorical = 2;
  spec.seed = 2;
  const Dataset data = GenerateSyntheticRegression(spec).value();
  EXPECT_EQ(data.task(), TaskType::kRegression);
  EXPECT_EQ(data.num_rows(), 50u);
  EXPECT_EQ(data.num_features(), 6u);
  EXPECT_EQ(data.targets().size(), 50u);
  // Targets spread around the configured shift, not collapsed.
  double lo = data.Target(0), hi = data.Target(0);
  for (size_t i = 0; i < data.num_rows(); ++i) {
    lo = std::min(lo, data.Target(i));
    hi = std::max(hi, data.Target(i));
  }
  EXPECT_GT(hi - lo, 1.0);
}

TEST(SyntheticRegressionTest, RejectsDegenerateSpecs) {
  SyntheticRegressionSpec empty;
  empty.num_rows = 0;
  EXPECT_FALSE(GenerateSyntheticRegression(empty).ok());
  SyntheticRegressionSpec no_features;
  no_features.num_features = 0;
  EXPECT_FALSE(GenerateSyntheticRegression(no_features).ok());
}

// --- CSV round trip ------------------------------------------------------

TEST(RegressionCsvTest, RoundTripPreservesTaskAndTargets) {
  SyntheticRegressionSpec spec;
  spec.name = "reg";
  spec.num_rows = 40;
  spec.num_features = 5;
  spec.num_categorical = 1;
  spec.missing_fraction = 0.05;
  spec.seed = 12;
  const Dataset data = GenerateSyntheticRegression(spec).value();

  const std::string csv = ToCsvString(data);
  auto parsed = FromCsvString(csv, "reg");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->task(), TaskType::kRegression);
  ASSERT_EQ(parsed->num_rows(), data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(parsed->Target(i), data.Target(i)) << i;
  }
  EXPECT_EQ(ToCsvString(*parsed), csv);
}

TEST(RegressionCsvTest, NonNumericTargetIsAnErrorNotZero) {
  EXPECT_FALSE(FromCsvString("x,target\n1.0,abc\n", "bad").ok());
  EXPECT_FALSE(FromCsvString("x,target\n1.0,1.5extra\n", "bad").ok());
  EXPECT_FALSE(FromCsvString("x,target\n1.0,\n", "bad").ok());
}

// --- Model-family admissibility ------------------------------------------

TEST(ModelTaskSupportTest, EveryFamilyHandlesClassification) {
  for (const std::string& model : KnownModels()) {
    EXPECT_TRUE(ModelSupportsTask(model, TaskType::kBinary)) << model;
    EXPECT_TRUE(ModelSupportsTask(model, TaskType::kMulticlass)) << model;
  }
  // Filtering is the identity on classification, preserving search-space
  // enumeration order (and hence RNG draws) for every existing bench.
  EXPECT_EQ(FilterModelsForTask(KnownModels(), TaskType::kBinary),
            KnownModels());
}

TEST(ModelTaskSupportTest, RegressionSubset) {
  EXPECT_TRUE(ModelSupportsTask("decision_tree", TaskType::kRegression));
  EXPECT_TRUE(ModelSupportsTask("random_forest", TaskType::kRegression));
  EXPECT_TRUE(ModelSupportsTask("gradient_boosting",
                                TaskType::kRegression));
  EXPECT_TRUE(ModelSupportsTask("knn", TaskType::kRegression));
  EXPECT_TRUE(ModelSupportsTask("mlp", TaskType::kRegression));
  EXPECT_FALSE(ModelSupportsTask("naive_bayes", TaskType::kRegression));
  EXPECT_FALSE(ModelSupportsTask("adaboost", TaskType::kRegression));
  EXPECT_FALSE(
      ModelSupportsTask("attention_few_shot", TaskType::kRegression));
}

// --- Regression learners fit signal --------------------------------------

class RegressionModelsTest : public ::testing::Test {
 protected:
  RegressionModelsTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {
    SyntheticRegressionSpec spec;
    spec.name = "easy_reg";
    spec.num_rows = 260;
    spec.num_features = 8;
    spec.num_informative = 8;
    spec.noise = 0.2;
    spec.seed = 6;
    const Dataset data = GenerateSyntheticRegression(spec).value();
    Rng rng(4);
    TrainTestData split = Materialize(data, SplitForTask(data, 0.7, &rng));
    train_ = std::move(split.train);
    test_ = std::move(split.test);
  }

  /// Held-out R2 of the named model fitted through a standard pipeline.
  double FitAndScore(const std::string& model) {
    PipelineConfig config;
    config.model = model;
    config.seed = 17;
    if (model == "mlp") config.params["epochs"] = 40.0;
    auto pipeline = BuildPipeline(config);
    EXPECT_TRUE(pipeline.ok()) << model;
    Status fitted = pipeline->Fit(train_, &ctx_);
    EXPECT_TRUE(fitted.ok()) << model << ": " << fitted.ToString();
    auto pred = pipeline->PredictProba(test_, &ctx_);
    EXPECT_TRUE(pred.ok()) << model;
    EXPECT_EQ((*pred)[0].size(), 1u) << model;
    std::vector<double> flat;
    flat.reserve(pred->size());
    for (const auto& row : *pred) flat.push_back(row[0]);
    return R2(test_.targets(), flat);
  }

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
  Dataset train_;
  Dataset test_;
};

TEST_F(RegressionModelsTest, RegressionCapableFamiliesExplainVariance) {
  // An easy near-linear task: every capable family should beat the
  // target-mean baseline (R2 = 0) by a wide margin.
  EXPECT_GT(FitAndScore("decision_tree"), 0.3);
  EXPECT_GT(FitAndScore("random_forest"), 0.4);
  EXPECT_GT(FitAndScore("extra_trees"), 0.4);
  EXPECT_GT(FitAndScore("gradient_boosting"), 0.5);
  EXPECT_GT(FitAndScore("logistic_regression"), 0.5);  // Linear model.
  EXPECT_GT(FitAndScore("knn"), 0.2);
  EXPECT_GT(FitAndScore("mlp"), 0.3);
}

TEST_F(RegressionModelsTest, RegressionFitMatchesRegistry) {
  // A family's regression Fit returns Unimplemented exactly when the
  // registry says it cannot fit regression, so a registry row and its
  // model cannot disagree.
  for (const std::string& model : KnownModels()) {
    PipelineConfig config;
    config.model = model;
    auto pipeline = BuildPipeline(config);
    ASSERT_TRUE(pipeline.ok()) << model;
    const Status fitted = pipeline->Fit(train_, &ctx_);
    if (ModelSupportsTask(model, TaskType::kRegression)) {
      EXPECT_TRUE(fitted.ok()) << model << ": " << fitted.ToString();
    } else {
      EXPECT_EQ(fitted.code(), Status::Code::kUnimplemented)
          << model << ": " << fitted.ToString();
    }
  }
}

}  // namespace
}  // namespace green
