#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "green/data/synthetic.h"
#include "green/ml/metrics.h"
#include "green/ml/model_registry.h"
#include "green/ml/pipeline.h"
#include "green/table/split.h"

namespace green {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {}

  Dataset MakeTask(double missing = 0.0) {
    SyntheticSpec spec;
    spec.name = "task";
    spec.num_rows = 240;
    spec.num_features = 10;
    spec.num_informative = 8;
    spec.num_categorical = 3;
    spec.separation = 3.0;
    spec.missing_fraction = missing;
    spec.seed = 4;
    auto data = GenerateSynthetic(spec);
    EXPECT_TRUE(data.ok());
    return std::move(data).value();
  }

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
};

TEST_F(PipelineTest, BuildsEveryKnownModel) {
  for (const std::string& name : KnownModels()) {
    PipelineConfig config;
    config.model = name;
    auto pipeline = BuildPipeline(config);
    EXPECT_TRUE(pipeline.ok()) << name;
  }
}

TEST_F(PipelineTest, UnknownModelRejected) {
  PipelineConfig config;
  config.model = "quantum_svm";
  EXPECT_FALSE(BuildPipeline(config).ok());
  config.model = "decision_tree";
  config.scaler = "bogus";
  EXPECT_FALSE(BuildPipeline(config).ok());
}

TEST_F(PipelineTest, EndToEndWithMissingAndCategorical) {
  const Dataset data = MakeTask(/*missing=*/0.05);
  Rng rng(5);
  const TrainTestData split =
      Materialize(data, StratifiedSplit(data, 0.66, &rng));
  PipelineConfig config;
  config.model = "random_forest";
  config.params["num_trees"] = 16;
  auto pipeline = BuildPipeline(config);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->Fit(split.train, &ctx_).ok());
  auto preds = pipeline->Predict(split.test, &ctx_);
  ASSERT_TRUE(preds.ok());
  EXPECT_GT(BalancedAccuracy(split.test.labels(), preds.value(),
                             data.num_classes()),
            0.75);
}

TEST_F(PipelineTest, PredictBeforeFitRejected) {
  PipelineConfig config;
  auto pipeline = BuildPipeline(config);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_FALSE(pipeline->Predict(MakeTask(), &ctx_).ok());
}

TEST_F(PipelineTest, PipelineWithoutModelRejected) {
  Pipeline pipeline;
  EXPECT_FALSE(pipeline.Fit(MakeTask(), &ctx_).ok());
}

TEST_F(PipelineTest, DescribeListsStages) {
  PipelineConfig config;
  config.model = "naive_bayes";
  config.select_k_best = 4;
  auto pipeline = BuildPipeline(config);
  ASSERT_TRUE(pipeline.ok());
  const std::string description = pipeline->Describe();
  EXPECT_NE(description.find("imputer"), std::string::npos);
  EXPECT_NE(description.find("select_k_best"), std::string::npos);
  EXPECT_NE(description.find("naive_bayes"), std::string::npos);
}

TEST_F(PipelineTest, ConfigDescribeIsCompact) {
  PipelineConfig config;
  config.model = "random_forest";
  config.params["num_trees"] = 8;
  const std::string s = config.Describe();
  EXPECT_NE(s.find("random_forest"), std::string::npos);
  EXPECT_NE(s.find("num_trees=8"), std::string::npos);
}

TEST_F(PipelineTest, InferenceFlopsComposeAcrossStages) {
  const Dataset data = MakeTask();
  PipelineConfig bare;
  bare.model = "logistic_regression";
  bare.impute = false;
  bare.one_hot = false;
  bare.scaler = "none";
  PipelineConfig full;
  full.model = "logistic_regression";
  auto p_bare = BuildPipeline(bare);
  auto p_full = BuildPipeline(full);
  ASSERT_TRUE(p_bare.ok() && p_full.ok());
  ASSERT_TRUE(p_bare->Fit(data, &ctx_).ok());
  ASSERT_TRUE(p_full->Fit(data, &ctx_).ok());
  EXPECT_GT(p_full->InferenceFlopsPerRow(data.num_features()),
            p_bare->InferenceFlopsPerRow(data.num_features()));
}

TEST_F(PipelineTest, SelectKReducesModelInputWidth) {
  const Dataset data = MakeTask();
  PipelineConfig narrow;
  narrow.model = "logistic_regression";
  narrow.one_hot = false;
  narrow.select_k_best = 3;
  auto pipeline = BuildPipeline(narrow);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->Fit(data, &ctx_).ok());
  auto preds = pipeline->Predict(data, &ctx_);
  EXPECT_TRUE(preds.ok());
}

TEST_F(PipelineTest, TrainCostEstimatesOrdering) {
  // NB must be estimated cheaper than a forest, which is cheaper than a
  // big MLP — the ordering FLAML's ladder and the planners rely on.
  PipelineConfig nb;
  nb.model = "naive_bayes";
  PipelineConfig forest;
  forest.model = "random_forest";
  forest.params["num_trees"] = 32;
  PipelineConfig mlp;
  mlp.model = "mlp";
  mlp.params["hidden_units"] = 64;
  mlp.params["epochs"] = 60;
  const double nb_cost = EstimateTrainCost(nb, 1000, 20, 2);
  const double forest_cost = EstimateTrainCost(forest, 1000, 20, 2);
  const double mlp_cost = EstimateTrainCost(mlp, 1000, 20, 2);
  EXPECT_LT(nb_cost, forest_cost);
  EXPECT_LT(nb_cost, mlp_cost);
}

TEST_F(PipelineTest, PredictCostEstimates) {
  PipelineConfig knn;
  knn.model = "knn";
  PipelineConfig logistic;
  logistic.model = "logistic_regression";
  // kNN prediction cost grows with training size; logistic's does not.
  EXPECT_GT(EstimatePredictCost(knn, 10000, 100, 20, 2),
            10.0 * EstimatePredictCost(knn, 100, 100, 20, 2));
  EXPECT_NEAR(EstimatePredictCost(logistic, 10000, 100, 20, 2),
              EstimatePredictCost(logistic, 100, 100, 20, 2), 1e-9);
}

TEST_F(PipelineTest, TrainCostMonotoneInRows) {
  for (const std::string& name : KnownModels()) {
    PipelineConfig config;
    config.model = name;
    EXPECT_LE(EstimateTrainCost(config, 100, 10, 2),
              EstimateTrainCost(config, 10000, 10, 2))
        << name;
  }
}

TEST_F(PipelineTest, CostEstimatesPinned) {
  // Budget gating reads these estimates before every evaluation, so they
  // are pinned bit for bit: every family at its defaults, then decoded
  // search points, including the non-integral depths the AdaBoost and
  // boosting decode emits (costs read them untruncated) and a forest
  // whose max_features_fraction of 0 falls back to sqrt(d)/d. Shape:
  // 3000 train rows, 500 predict rows, 12 features, 3 classes.
  struct Pinned {
    std::string model;
    std::map<std::string, double> params;
    double train;
    double predict;
  };
  const std::vector<Pinned> pinned = {
      {"decision_tree", {}, 3398615.0741903735, 20000},
      {"random_forest", {}, 38484442.17148158, 380000},
      {"extra_trees", {}, 9675110.5428703949, 380000},
      {"gradient_boosting", {}, 74920839.16928342, 372000},
      {"adaboost", {}, 25021613.056427807, 72000},
      {"logistic_regression", {}, 13032000, 48000},
      {"knn", {}, 75000, 54012000},
      {"naive_bayes", {}, 216000, 84000},
      {"mlp", {}, 230472000, 492000},
      {"attention_few_shot", {}, 75000, 92172000},
      {"decision_tree",
       {{"max_depth", 5.0},
        {"min_samples_leaf", 3.0},
        {"max_features_fraction", 0.4}},
       2151134.4213689836,
       17000},
      {"random_forest",
       {{"num_trees", 17.0},
        {"max_depth", 6.0},
        {"max_features_fraction", 0.0}},
       12315965.942159753,
       139500},
      {"random_forest",
       {{"num_trees", 17.0},
        {"max_depth", 6.0},
        {"max_features_fraction", 0.55}},
       23399888.207759999,
       139500},
      {"extra_trees",
       {{"num_trees", 9.0},
        {"max_depth", 12.0},
        {"max_features_fraction", 0.3}},
       3440197.7626177538,
       133500},
      {"gradient_boosting",
       {{"num_rounds", 23.0},
        {"max_depth", 8.0 / 3.0},
        {"learning_rate", 0.07},
        {"subsample", 0.8}},
       38328073.353189304,
       196000},
      {"adaboost",
       {{"num_rounds", 11.0}, {"max_depth", 2.25}, {"learning_rate", 0.3}},
       10363715.385776469,
       36750},
      {"logistic_regression",
       {{"epochs", 17.0}, {"learning_rate", 0.05}},
       7416000,
       48000},
      {"knn", {{"k", 7.0}}, 75000, 54012000},
      {"mlp",
       {{"hidden_units", 21.0}, {"epochs", 13.0}, {"learning_rate", 0.2}},
       49212000,
       327000},
      {"attention_few_shot", {{"embed_dim", 24.0}}, 75000, 55308000},
      // An unknown family is charged the preprocessing floor only.
      {"quantum_svm", {}, 72000, 12000},
  };
  for (const Pinned& row : pinned) {
    PipelineConfig config;
    config.model = row.model;
    config.params = row.params;
    const std::string label = config.Describe();
    EXPECT_EQ(EstimateTrainCost(config, 3000, 12, 3), row.train) << label;
    EXPECT_EQ(EstimatePredictCost(config, 3000, 500, 12, 3), row.predict)
        << label;
  }
  // Every known family has a defaults row.
  for (const std::string& name : KnownModels()) {
    EXPECT_EQ(std::count_if(pinned.begin(), pinned.end(),
                            [&](const Pinned& row) {
                              return row.model == name && row.params.empty();
                            }),
              1)
        << name;
  }
}

TEST_F(PipelineTest, ParamsForwardedToModel) {
  const Dataset data = MakeTask();
  PipelineConfig small;
  small.model = "random_forest";
  small.params["num_trees"] = 4;
  PipelineConfig big = small;
  big.params["num_trees"] = 32;
  auto a = BuildPipeline(small);
  auto b = BuildPipeline(big);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Fit(data, &ctx_).ok());
  ASSERT_TRUE(b->Fit(data, &ctx_).ok());
  EXPECT_GT(b->ModelComplexity(), a->ModelComplexity());
}

}  // namespace
}  // namespace green
