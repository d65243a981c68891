// Tests for the optional/extension features beyond the paper's core
// measurement campaign: PCA and quantile binning preprocessors, AdaBoost,
// the random-search baseline system, CAML early stopping (§3.8) and the
// CO2-aware search objective (§1 / [47]).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "green/automl/caml_system.h"
#include "green/automl/random_search_system.h"
#include "green/common/mathutil.h"
#include "green/data/synthetic.h"
#include "green/ml/metrics.h"
#include "green/ml/model_registry.h"
#include "green/ml/models/adaboost.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/pca.h"
#include "green/table/split.h"
#include "bit_hash.h"

namespace green {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest()
      : energy_model_(MachineModel::Minimal()),
        ctx_(&clock_, &energy_model_, 1) {}

  Dataset MakeTask(int classes = 2, size_t rows = 300,
                   double separation = 3.0, uint64_t seed = 17) {
    SyntheticSpec spec;
    spec.name = "ext";
    spec.num_rows = rows;
    spec.num_features = 10;
    spec.num_informative = 6;
    spec.num_classes = classes;
    spec.separation = separation;
    spec.seed = seed;
    auto data = GenerateSynthetic(spec);
    EXPECT_TRUE(data.ok());
    return std::move(data).value();
  }

  VirtualClock clock_;
  EnergyModel energy_model_;
  ExecutionContext ctx_;
};

// --- PCA ---

TEST_F(ExtensionsTest, PcaProjectsToRequestedWidth) {
  const Dataset data = MakeTask();
  Pca pca(3);
  ASSERT_TRUE(pca.Fit(data, &ctx_).ok());
  EXPECT_EQ(pca.components_fitted(), 3u);
  auto out = pca.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_features(), 3u);
  EXPECT_EQ(out->num_rows(), data.num_rows());
  EXPECT_EQ(pca.OutputWidth(10), 3u);
}

TEST_F(ExtensionsTest, PcaFirstComponentCapturesMostVariance) {
  const Dataset data = MakeTask();
  Pca pca(4);
  ASSERT_TRUE(pca.Fit(data, &ctx_).ok());
  const auto& ratios = pca.explained_variance_ratio();
  ASSERT_EQ(ratios.size(), 4u);
  for (size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_GE(ratios[i - 1], ratios[i] - 0.05);
  }
  double total = 0.0;
  for (double r : ratios) {
    EXPECT_GE(r, 0.0);
    total += r;
  }
  EXPECT_LE(total, 1.0 + 1e-6);
}

TEST_F(ExtensionsTest, PcaRecoversDominantDirection) {
  // Data on a line y = 2x (plus tiny noise): one component captures
  // nearly everything.
  Dataset data("line", 2, 2);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.NextGaussian();
    ASSERT_TRUE(
        data.AppendRow({t, 2.0 * t + rng.NextGaussian() * 0.01}, i % 2)
            .ok());
  }
  Pca pca(1);
  ASSERT_TRUE(pca.Fit(data, &ctx_).ok());
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.99);
}

TEST_F(ExtensionsTest, PcaErrors) {
  Pca pca(2);
  const Dataset data = MakeTask();
  EXPECT_FALSE(pca.Transform(data, &ctx_).ok());  // Not fitted.
  Dataset one_row("o", 3, 2);
  ASSERT_TRUE(one_row.AppendRow({1, 2, 3}, 0).ok());
  EXPECT_FALSE(pca.Fit(one_row, &ctx_).ok());
}

TEST_F(ExtensionsTest, PcaCapsComponentsAtWidth) {
  const Dataset data = MakeTask();
  Pca pca(100);
  ASSERT_TRUE(pca.Fit(data, &ctx_).ok());
  EXPECT_EQ(pca.components_fitted(), data.num_features());
}

// The values were recorded before the power iteration was blocked: any
// change to the order of a floating-point sum moves them. 203 rows is not
// a multiple of the four-row block, so the tail path is pinned too.
using PcaTest = ExtensionsTest;

TEST_F(PcaTest, FitMatchesPinnedDigest) {
  struct Case {
    size_t rows;
    size_t components;
    uint64_t pinned;
  };
  const Case kCases[] = {{203, 4, 0x2b4b73e32a703fdbULL},
                         {256, 3, 0xb1d78f66ef3276dbULL},
                         {97, 10, 0xbd1b50d88b6b6fedULL}};
  for (const Case& c : kCases) {
    const Dataset data = MakeTask(3, c.rows, 1.5, 40 + c.rows);
    Pca pca(c.components);
    ASSERT_TRUE(pca.Fit(data, &ctx_).ok());
    BitHash hash;
    for (double x : pca.components()) hash.Add(x);
    for (double x : pca.explained_variance_ratio()) hash.Add(x);
    EXPECT_EQ(hash.value(), c.pinned)
        << c.rows << " rows: 0x" << std::hex << hash.value();
  }
}

// --- QuantileBinner ---

using QuantileBinnerTest = ExtensionsTest;

TEST_F(QuantileBinnerTest, EdgesMatchPerEdgeQuantile) {
  // Column 0: heavy ties and NaNs; column 1: distinct values; column 2:
  // one non-NaN value (pass-through); column 3: categorical.
  Dataset data("edges", 4, 2);
  data.SetFeatureType(3, FeatureType::kCategorical);
  Rng rng(8);
  for (int r = 0; r < 157; ++r) {
    const double tied = r % 7 == 0 ? NAN : std::floor(rng.NextDouble() * 5);
    ASSERT_TRUE(data.AppendRow({tied, rng.NextGaussian(),
                                r == 3 ? 1.0 : NAN,
                                static_cast<double>(r % 3)},
                               r % 2)
                    .ok());
  }
  for (int bins : {2, 5, 8, 13}) {
    QuantileBinner binner(bins);
    ASSERT_TRUE(binner.Fit(data, &ctx_).ok());
    for (size_t j = 0; j < data.num_features(); ++j) {
      std::vector<double> expected;
      std::vector<double> column;
      for (size_t r = 0; r < data.num_rows(); ++r) {
        if (!std::isnan(data.At(r, j))) column.push_back(data.At(r, j));
      }
      if (j != 3 && column.size() >= 2) {
        for (int b = 1; b < bins; ++b) {
          expected.push_back(Quantile(
              column, static_cast<double>(b) / static_cast<double>(bins)));
        }
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
      }
      EXPECT_EQ(binner.edges(j), expected) << bins << " bins, column " << j;
    }
  }
}


TEST_F(ExtensionsTest, BinnerProducesIntegerCodesInRange) {
  const Dataset data = MakeTask();
  QuantileBinner binner(4);
  ASSERT_TRUE(binner.Fit(data, &ctx_).ok());
  auto out = binner.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  for (size_t r = 0; r < out->num_rows(); ++r) {
    for (size_t j = 0; j < out->num_features(); ++j) {
      const double v = out->At(r, j);
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 4.0);
      EXPECT_DOUBLE_EQ(v, std::floor(v));
    }
  }
}

TEST_F(ExtensionsTest, BinnerQuantilesAreBalanced) {
  Dataset data("u", 1, 2);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(data.AppendRow({rng.NextDouble()}, i % 2).ok());
  }
  QuantileBinner binner(4);
  ASSERT_TRUE(binner.Fit(data, &ctx_).ok());
  auto out = binner.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  std::vector<int> counts(4, 0);
  for (size_t r = 0; r < out->num_rows(); ++r) {
    ++counts[static_cast<size_t>(out->At(r, 0))];
  }
  for (int c : counts) EXPECT_NEAR(c, 250, 30);
}

TEST_F(ExtensionsTest, BinnerSkipsCategoricalAndMissing) {
  Dataset data("c", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({1.0, 7.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({NAN, 7.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({3.0, 7.0}, 0).ok());
  QuantileBinner binner(2);
  ASSERT_TRUE(binner.Fit(data, &ctx_).ok());
  auto out = binner.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 1), 7.0);          // Categorical untouched.
  EXPECT_TRUE(std::isnan(out->At(1, 0)));        // Missing stays missing.
}

// Quantiles that land exactly on a rank read that value: interpolating
// toward an infinite neighbour at weight 0 gave inf * 0 = NaN edges,
// which sent every value to the last bin.
TEST_F(ExtensionsTest, BinnerEdgesOnInfiniteColumn) {
  const double inf = std::numeric_limits<double>::infinity();
  Dataset data("inf", 1, 2);
  int label = 0;
  for (double v : {0.0, 1.0, inf, inf, inf}) {
    ASSERT_TRUE(data.AppendRow({v}, label++ % 2).ok());
  }
  QuantileBinner binner(4);
  ASSERT_TRUE(binner.Fit(data, &ctx_).ok());
  EXPECT_EQ(binner.edges(0), (std::vector<double>{1.0, inf}));
  const double in[] = {-1.0, 0.5, 1.5, 1e300, inf};
  const double expected[] = {0.0, 0.0, 1.0, 1.0, 2.0};
  for (size_t i = 0; i < 5; ++i) {
    double out = -1.0;
    binner.TransformRow(&in[i], &out);
    EXPECT_EQ(out, expected[i]) << "value " << in[i];
  }

  // A -inf/+inf pair straddling the median interpolates to NaN; the edge
  // takes +inf, so the two values get the codes 0 and 1.
  Dataset straddle("straddle", 1, 2);
  ASSERT_TRUE(straddle.AppendRow({-inf}, 0).ok());
  ASSERT_TRUE(straddle.AppendRow({inf}, 1).ok());
  QuantileBinner halves(2);
  ASSERT_TRUE(halves.Fit(straddle, &ctx_).ok());
  EXPECT_EQ(halves.edges(0), (std::vector<double>{inf}));
  const double ends[] = {-inf, inf};
  for (size_t i = 0; i < 2; ++i) {
    double out = -1.0;
    halves.TransformRow(&ends[i], &out);
    EXPECT_EQ(out, static_cast<double>(i)) << "value " << ends[i];
  }
}

TEST_F(ExtensionsTest, BinnerRejectsBadConfig) {
  QuantileBinner binner(1);
  EXPECT_FALSE(binner.Fit(MakeTask(), &ctx_).ok());
}

// --- AdaBoost ---

TEST_F(ExtensionsTest, AdaBoostLearnsSeparableData) {
  const Dataset data = MakeTask(2, 300, 4.0);
  AdaBoost model{AdaBoostParams{}};
  ASSERT_TRUE(model.Fit(data, &ctx_).ok());
  auto preds = model.Predict(data, &ctx_);
  ASSERT_TRUE(preds.ok());
  EXPECT_GT(BalancedAccuracy(data.labels(), preds.value(), 2), 0.9);
  EXPECT_GT(model.rounds_fitted(), 0);
}

TEST_F(ExtensionsTest, AdaBoostHandlesMulticlass) {
  const Dataset data = MakeTask(4, 400, 4.0);
  AdaBoostParams params;
  params.num_rounds = 40;
  params.max_depth = 3;
  AdaBoost model(params);
  ASSERT_TRUE(model.Fit(data, &ctx_).ok());
  auto proba = model.PredictProba(data, &ctx_);
  ASSERT_TRUE(proba.ok());
  for (const auto& row : *proba) {
    double sum = 0.0;
    for (double p : row) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  auto preds = model.Predict(data, &ctx_);
  EXPECT_GT(BalancedAccuracy(data.labels(), preds.value(), 4), 0.75);
}

TEST_F(ExtensionsTest, AdaBoostStumpsBeatSingleStump) {
  const Dataset data = MakeTask(2, 400, 1.6, 23);
  AdaBoostParams boosted_params;
  boosted_params.num_rounds = 30;
  boosted_params.max_depth = 1;
  AdaBoost boosted(boosted_params);
  DecisionTreeParams stump_params;
  stump_params.max_depth = 1;
  DecisionTree stump(stump_params);
  ASSERT_TRUE(boosted.Fit(data, &ctx_).ok());
  ASSERT_TRUE(stump.Fit(data, &ctx_).ok());
  const double boosted_acc = BalancedAccuracy(
      data.labels(), boosted.Predict(data, &ctx_).value(), 2);
  const double stump_acc = BalancedAccuracy(
      data.labels(), stump.Predict(data, &ctx_).value(), 2);
  EXPECT_GE(boosted_acc, stump_acc - 0.02);
}

TEST_F(ExtensionsTest, AdaBoostInRegistry) {
  PipelineConfig config;
  config.model = "adaboost";
  config.params["num_rounds"] = 10;
  auto pipeline = BuildPipeline(config);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->Fit(MakeTask(), &ctx_).ok());
  EXPECT_GT(EstimateTrainCost(config, 1000, 10, 2), 0.0);
  EXPECT_GT(EstimatePredictCost(config, 1000, 10, 10, 2), 0.0);
}

// --- pipeline configs with the new preprocessors ---

TEST_F(ExtensionsTest, PipelineWithPcaAndBinning) {
  const Dataset data = MakeTask();
  PipelineConfig config;
  config.model = "logistic_regression";
  config.pca_components = 4;
  config.quantile_binning = true;
  auto pipeline = BuildPipeline(config);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->Fit(data, &ctx_).ok());
  auto preds = pipeline->Predict(data, &ctx_);
  ASSERT_TRUE(preds.ok());
  EXPECT_GT(BalancedAccuracy(data.labels(), preds.value(), 2), 0.7);
  const std::string desc = config.Describe();
  EXPECT_NE(desc.find("pca4"), std::string::npos);
  EXPECT_NE(desc.find("bin"), std::string::npos);
}

// --- RandomSearchSystem ---

TEST_F(ExtensionsTest, RandomSearchFindsWorkingPipeline) {
  const Dataset data = MakeTask(2, 260, 2.6);
  Rng rng(8);
  TrainTestData split =
      Materialize(data, StratifiedSplit(data, 0.66, &rng));
  RandomSearchSystem system;
  AutoMlOptions options;
  options.search_budget_seconds = 3.0;
  options.seed = 42;
  auto run = system.Fit(split.train, options, &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->artifact.NumPipelines(), 1u);
  auto preds = run->artifact.Predict(split.test, &ctx_);
  ASSERT_TRUE(preds.ok());
  EXPECT_GT(BalancedAccuracy(split.test.labels(), preds.value(), 2), 0.7);
  EXPECT_EQ(system.budget_policy(), BudgetPolicyKind::kStrict);
  EXPECT_LE(run->actual_seconds, 3.0 * 1.3);  // Strict-ish adherence.
}

TEST_F(ExtensionsTest, BayesOptBeatsRandomSearchOnAverage) {
  // The premise behind the paper's amortization argument [2, 64]: with
  // equal budgets, guided search should not lose to random sampling.
  const Dataset data = MakeTask(3, 300, 1.8, 31);
  double bo_sum = 0.0;
  double random_sum = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(100 + rep);
    TrainTestData split =
        Materialize(data, StratifiedSplit(data, 0.66, &rng));
    AutoMlOptions options;
    options.search_budget_seconds = 4.0;
    options.seed = 500 + rep;
    CamlSystem caml;
    RandomSearchSystem random;
    auto bo_run = caml.Fit(split.train, options, &ctx_);
    auto random_run = random.Fit(split.train, options, &ctx_);
    ASSERT_TRUE(bo_run.ok() && random_run.ok());
    auto bo_preds = bo_run->artifact.Predict(split.test, &ctx_);
    auto random_preds = random_run->artifact.Predict(split.test, &ctx_);
    ASSERT_TRUE(bo_preds.ok() && random_preds.ok());
    bo_sum += BalancedAccuracy(split.test.labels(), bo_preds.value(), 3);
    random_sum +=
        BalancedAccuracy(split.test.labels(), random_preds.value(), 3);
  }
  EXPECT_GE(bo_sum, random_sum - 0.15);
}

// --- CAML early stopping (§3.8) ---

TEST_F(ExtensionsTest, EarlyStoppingSavesEnergy) {
  const Dataset data = MakeTask(2, 260, 4.0);  // Easy: converges fast.
  Rng rng(9);
  TrainTestData split =
      Materialize(data, StratifiedSplit(data, 0.66, &rng));
  AutoMlOptions options;
  options.search_budget_seconds = 6.0;
  options.seed = 77;

  CamlSystem unlimited;
  CamlParams stopping_params;
  stopping_params.early_stopping_patience = 3;
  CamlSystem stopping(stopping_params, "caml_es");

  auto run_unlimited = unlimited.Fit(split.train, options, &ctx_);
  auto run_stopping = stopping.Fit(split.train, options, &ctx_);
  ASSERT_TRUE(run_unlimited.ok() && run_stopping.ok());
  // On an easy task the stopper ends well before the budget and burns
  // less energy, at (near-)equal accuracy.
  EXPECT_LT(run_stopping->actual_seconds,
            run_unlimited->actual_seconds * 0.9);
  EXPECT_LT(run_stopping->execution.kwh(),
            run_unlimited->execution.kwh());
  auto preds_unlimited =
      run_unlimited->artifact.Predict(split.test, &ctx_);
  auto preds_stopping = run_stopping->artifact.Predict(split.test, &ctx_);
  ASSERT_TRUE(preds_unlimited.ok() && preds_stopping.ok());
  EXPECT_GE(BalancedAccuracy(split.test.labels(), preds_stopping.value(),
                             2),
            BalancedAccuracy(split.test.labels(),
                             preds_unlimited.value(), 2) -
                0.08);
}

// --- CO2-aware objective (§1 / [47]) ---

TEST_F(ExtensionsTest, EnergyWeightPrefersCheaperPipelines) {
  const Dataset data = MakeTask(2, 300, 2.2, 41);
  Rng rng(10);
  TrainTestData split =
      Materialize(data, StratifiedSplit(data, 0.66, &rng));
  AutoMlOptions options;
  options.search_budget_seconds = 5.0;
  options.seed = 99;

  CamlSystem plain;
  CamlParams green_params;
  green_params.energy_weight = 0.5;
  CamlSystem green(green_params, "caml_green");

  auto run_plain = plain.Fit(split.train, options, &ctx_);
  auto run_green = green.Fit(split.train, options, &ctx_);
  ASSERT_TRUE(run_plain.ok() && run_green.ok());
  EXPECT_LE(run_green->artifact.InferenceFlopsPerRow(data.num_features()),
            run_plain->artifact.InferenceFlopsPerRow(
                data.num_features()) *
                1.5);
}

}  // namespace
}  // namespace green
