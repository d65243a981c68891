#include <gtest/gtest.h>

#include <cmath>

#include "green/common/rng.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/scaler.h"

namespace green {
namespace {

class PreprocessTest : public ::testing::Test {
 protected:
  PreprocessTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {}

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
};

Dataset WithMissing() {
  Dataset data("m", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  EXPECT_TRUE(data.AppendRow({1.0, 0.0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({NAN, 1.0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({3.0, NAN}, 0).ok());
  EXPECT_TRUE(data.AppendRow({5.0, 1.0}, 1).ok());
  return data;
}

// --- Imputer ---

TEST_F(PreprocessTest, ImputerFillsMeanAndMode) {
  MeanModeImputer imputer;
  const Dataset data = WithMissing();
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  auto out = imputer.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->At(1, 0), 3.0, 1e-12);  // Mean of {1,3,5}.
  EXPECT_DOUBLE_EQ(out->At(2, 1), 1.0);    // Mode of {0,1,1}.
  for (size_t r = 0; r < out->num_rows(); ++r) {
    for (size_t j = 0; j < out->num_features(); ++j) {
      EXPECT_FALSE(std::isnan(out->At(r, j)));
    }
  }
}

TEST_F(PreprocessTest, ImputerErrors) {
  MeanModeImputer imputer;
  const Dataset data = WithMissing();
  EXPECT_FALSE(imputer.Transform(data, &ctx_).ok());  // Not fitted.
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  Dataset wrong("w", 3, 2);
  ASSERT_TRUE(wrong.AppendRow({1, 2, 3}, 0).ok());
  EXPECT_FALSE(imputer.Transform(wrong, &ctx_).ok());
  Dataset empty("e", 2, 2);
  EXPECT_FALSE(imputer.Fit(empty, &ctx_).ok());
}

TEST_F(PreprocessTest, ImputerChargesWork) {
  MeanModeImputer imputer;
  const Dataset data = WithMissing();
  const double before = ctx_.counter()->total_flops();
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  EXPECT_GT(ctx_.counter()->total_flops(), before);
}

// --- Scaler ---

TEST_F(PreprocessTest, StandardScalerNormalizes) {
  Dataset data("s", 1, 2);
  for (double v : {2.0, 4.0, 6.0, 8.0}) {
    ASSERT_TRUE(data.AppendRow({v}, 0).ok());
  }
  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  double mean = 0.0;
  for (size_t r = 0; r < 4; ++r) mean += out->At(r, 0);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-12);
  double var = 0.0;
  for (size_t r = 0; r < 4; ++r) var += out->At(r, 0) * out->At(r, 0);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-12);
}

TEST_F(PreprocessTest, MinMaxScalerToUnitRange) {
  Dataset data("s", 1, 2);
  for (double v : {-10.0, 0.0, 30.0}) {
    ASSERT_TRUE(data.AppendRow({v}, 0).ok());
  }
  Scaler scaler(ScalerKind::kMinMax);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out->At(2, 0), 1.0);
  EXPECT_NEAR(out->At(1, 0), 0.25, 1e-12);
}

TEST_F(PreprocessTest, ScalerSkipsCategorical) {
  Dataset data("s", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({10.0, 3.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({20.0, 5.0}, 1).ok());
  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 1), 3.0);  // Untouched.
  EXPECT_DOUBLE_EQ(out->At(1, 1), 5.0);
}

TEST_F(PreprocessTest, ScalerConstantColumnSafe) {
  Dataset data("s", 1, 2);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(data.AppendRow({7.0}, 0).ok());
  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(std::isnan(out->At(0, 0)));
  EXPECT_FALSE(std::isinf(out->At(0, 0)));
}

// --- OneHot ---

TEST_F(PreprocessTest, OneHotExpandsCategoricals) {
  Dataset data("o", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({1.5, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.5, 2.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({3.5, 1.0}, 0).ok());
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
  EXPECT_EQ(encoder.output_width(), 1u + 3u);
  auto out = encoder.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_features(), 4u);
  EXPECT_DOUBLE_EQ(out->At(0, 0), 1.5);  // Numeric pass-through.
  EXPECT_DOUBLE_EQ(out->At(0, 1), 1.0);  // Code 0 indicator.
  EXPECT_DOUBLE_EQ(out->At(1, 3), 1.0);  // Code 2 indicator.
  EXPECT_DOUBLE_EQ(out->At(1, 1), 0.0);
}

TEST_F(PreprocessTest, OneHotNamesFollowTransformInput) {
  Dataset data("o", 2, 2);
  data.SetFeatureName(0, "a");
  data.SetFeatureName(1, "b");
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({1.5, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.5, 2.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({3.5, 1.0}, 0).ok());
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
  auto names = [](const Dataset& d) {
    std::vector<std::string> out;
    for (size_t j = 0; j < d.num_features(); ++j) {
      out.push_back(d.feature_name(j));
    }
    return out;
  };
  auto fitted = encoder.Transform(data.Subset({2, 0}), &ctx_);
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(names(*fitted),
            (std::vector<std::string>{"a", "b=0", "b=1", "b=2"}));

  // Renamed input: the output must follow it, not the fit-time names.
  Dataset renamed = data.Subset({1});
  renamed.SetFeatureName(0, "x");
  renamed.SetFeatureName(1, "y");
  auto out = encoder.Transform(renamed, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(names(*out),
            (std::vector<std::string>{"x", "y=0", "y=1", "y=2"}));
  EXPECT_DOUBLE_EQ(out->At(0, 3), 1.0);

  // Unnamed input reads the default names.
  Dataset plain("p", 2, 2);
  plain.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(plain.AppendRow({0.5, 1.0}, 0).ok());
  auto unnamed = encoder.Transform(plain, &ctx_);
  ASSERT_TRUE(unnamed.ok());
  EXPECT_EQ(names(*unnamed),
            (std::vector<std::string>{"f0", "f1=0", "f1=1", "f1=2"}));
}

TEST_F(PreprocessTest, OneHotUnseenCategoryAllZeros) {
  Dataset train("o", 1, 2);
  train.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_TRUE(train.AppendRow({0.0}, 0).ok());
  ASSERT_TRUE(train.AppendRow({1.0}, 1).ok());
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(train, &ctx_).ok());
  Dataset test("o", 1, 2);
  test.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_TRUE(test.AppendRow({5.0}, 0).ok());  // Unseen code.
  auto out = encoder.Transform(test, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out->At(0, 1), 0.0);
}

TEST_F(PreprocessTest, OneHotHighCardinalityGuard) {
  Dataset data("o", 1, 2);
  data.SetFeatureType(0, FeatureType::kCategorical);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(data.AppendRow({static_cast<double>(i)}, i % 2).ok());
  }
  OneHotEncoder encoder(/*max_cardinality=*/32);
  ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
  // 100 categories exceed the guard: passed through as a single column.
  EXPECT_EQ(encoder.output_width(), 1u);
}

TEST_F(PreprocessTest, OneHotOutputWidthHelper) {
  OneHotEncoder encoder;
  EXPECT_EQ(encoder.OutputWidth(7), 7u);  // Before fit: identity.
}

// --- VarianceThreshold ---

TEST_F(PreprocessTest, VarianceThresholdDropsConstant) {
  Dataset data("v", 3, 2);
  ASSERT_TRUE(data.AppendRow({1.0, 5.0, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.0, 5.0, 0.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({3.0, 5.0, 0.0}, 0).ok());
  VarianceThreshold selector(0.0);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns(), std::vector<size_t>{0});
  auto out = selector.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_features(), 1u);
}

TEST_F(PreprocessTest, VarianceThresholdKeepsAtLeastOne) {
  Dataset data("v", 2, 2);
  ASSERT_TRUE(data.AppendRow({5.0, 5.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({5.0, 5.0}, 1).ok());
  VarianceThreshold selector(0.0);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns().size(), 1u);
}

// --- SelectKBest ---

TEST_F(PreprocessTest, SelectKBestPrefersInformative) {
  // Column 0 separates classes; column 1 is noise.
  Dataset data("k", 2, 2);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2;
    ASSERT_TRUE(
        data.AppendRow({y == 0 ? -2.0 + rng.NextGaussian() * 0.1
                               : 2.0 + rng.NextGaussian() * 0.1,
                        rng.NextGaussian()},
                       y)
            .ok());
  }
  SelectKBest selector(1);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns(), std::vector<size_t>{0});
}

TEST_F(PreprocessTest, SelectKBestCapsAtWidth) {
  Dataset data("k", 2, 2);
  ASSERT_TRUE(data.AppendRow({1.0, 2.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.0, 1.0}, 1).ok());
  SelectKBest selector(10);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns().size(), 2u);
  EXPECT_EQ(selector.OutputWidth(2), 2u);
}

TEST_F(PreprocessTest, SelectorsRequireFit) {
  Dataset data = WithMissing();
  SelectKBest sk(1);
  VarianceThreshold vt(0.0);
  EXPECT_FALSE(sk.Transform(data, &ctx_).ok());
  EXPECT_FALSE(vt.Transform(data, &ctx_).ok());
}

}  // namespace
}  // namespace green
