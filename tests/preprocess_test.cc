#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "bit_hash.h"
#include "flops_meter.h"
#include "green/common/rng.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/pca.h"
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
  FlopsMeter metered(&ctx_);
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  EXPECT_GT(metered.flops(), 0.0);
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

// --- Hostile categorical codes ---

// Codes that name no category (non-finite, negative, or past an
// encoder's cap) read as unseen: the one-hot gives them an all-zero block
// and the mode count skips them. None may reach an integer cast.
TEST_F(PreprocessTest, HostileCategoryCodesAreUnseen) {
  const double inf = std::numeric_limits<double>::infinity();
  // Column 0 is encodable (codes 0 and 1, the rest negative); column 1
  // holds codes past the cardinality cap, so it passes through.
  Dataset data("hostile", 2, 2);
  data.SetFeatureType(0, FeatureType::kCategorical);
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({0.0, 1e300}, 0).ok());
  ASSERT_TRUE(data.AppendRow({1.0, 0.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({-7.5, 1.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({-inf, -inf}, 1).ok());
  ASSERT_TRUE(data.AppendRow({1.0, inf}, 0).ok());
  ASSERT_TRUE(data.AppendRow({-0.5, NAN}, 1).ok());

  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
  EXPECT_EQ(encoder.output_width(), 3u);
  auto out = encoder.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  const std::vector<std::vector<double>> expected = {
      {1.0, 0.0, 1e300}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0},
      {0.0, 0.0, -inf},  {0.0, 1.0, inf}, {0.0, 0.0, NAN}};
  for (size_t r = 0; r < expected.size(); ++r) {
    for (size_t j = 0; j < 3; ++j) {
      if (std::isnan(expected[r][j])) {
        EXPECT_TRUE(std::isnan(out->At(r, j))) << r << "," << j;
      } else {
        EXPECT_EQ(out->At(r, j), expected[r][j]) << r << "," << j;
      }
    }
  }

  // Codes in range but never seen at fit, and non-finite codes, are
  // unseen too.
  Dataset test("hostile_test", 2, 2);
  test.SetFeatureType(0, FeatureType::kCategorical);
  test.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(test.AppendRow({-0.5, 2.0}, 0).ok());
  ASSERT_TRUE(test.AppendRow({inf, 3.0}, 1).ok());
  auto unseen = encoder.Transform(test, &ctx_);
  ASSERT_TRUE(unseen.ok());
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(unseen->At(r, 0), 0.0);
    EXPECT_EQ(unseen->At(r, 1), 0.0);
  }

  // The mode of column 0 counts only codes 0, 1, 1: mode 1. Column 1
  // counts 0 and 1 once each: the smaller code wins the tie.
  MeanModeImputer imputer;
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  EXPECT_EQ(imputer.fill_values(), (std::vector<double>{1.0, 0.0}));
  auto imputed = imputer.Transform(data, &ctx_);
  ASSERT_TRUE(imputed.ok());
  EXPECT_EQ(imputed->At(5, 1), 0.0);
  EXPECT_EQ(imputed->At(0, 1), 1e300);  // Not missing: kept as is.

  // A column with no countable code at all falls back to code 0.
  Dataset none("none", 1, 2);
  none.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_TRUE(none.AppendRow({-3.0}, 0).ok());
  ASSERT_TRUE(none.AppendRow({1e300}, 1).ok());
  ASSERT_TRUE(imputer.Fit(none, &ctx_).ok());
  EXPECT_EQ(imputer.fill_values(), std::vector<double>{0.0});
}

// --- Row chain ---

/// Numeric columns 0, 1, 3 and categorical columns 2 (4 codes) and 4 (3
/// codes); columns 0 and 2 are named. Missing cells in columns 0, 2 and 3.
/// `unseen` plants codes the fit table never holds.
Dataset MixedTable(size_t rows, uint64_t seed, bool unseen) {
  Dataset data("mixed", 5, 3);
  data.SetFeatureName(0, "age");
  data.SetFeatureName(2, "city");
  data.SetFeatureType(2, FeatureType::kCategorical);
  data.SetFeatureType(4, FeatureType::kCategorical);
  data.SetNominalSize(1000, 5);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> row = {
        r % 5 == 1 ? NAN : 20.0 + 40.0 * rng.NextDouble(),
        rng.NextGaussian(),
        r % 7 == 3 ? NAN : static_cast<double>(rng.NextBounded(4)),
        r % 4 == 2 ? NAN : std::round(rng.NextGaussian() * 8.0) / 4.0,
        static_cast<double>(rng.NextBounded(3))};
    if (unseen && r == 1) row[2] = 9.0;
    if (unseen && r == 2) row[4] = 5.0;
    EXPECT_TRUE(data.AppendRow(row, static_cast<int>(r % 3)).ok());
  }
  return data;
}

/// Three categorical columns only: the scaler passes every cell through.
Dataset CategoricalTable(size_t rows, uint64_t seed) {
  Dataset data("categorical", 3, 2);
  for (size_t j = 0; j < 3; ++j) {
    data.SetFeatureType(j, FeatureType::kCategorical);
  }
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(data.AppendRow({static_cast<double>(rng.NextBounded(5)),
                                static_cast<double>(rng.NextBounded(2)),
                                static_cast<double>(rng.NextBounded(3))},
                               static_cast<int>(r % 2))
                    .ok());
  }
  return data;
}

/// Four NaN-free numeric columns with regression targets: the one-hot
/// encoder has nothing to encode (its identity case).
Dataset NumericTable(size_t rows, uint64_t seed) {
  Dataset data = Dataset::Regression("numeric", 4);
  data.SetFeatureName(3, "last");
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double a = rng.NextGaussian();
    EXPECT_TRUE(data.AppendTargetRow({a, 3.0 * rng.NextDouble(),
                                      std::round(a * 2.0),
                                      rng.NextGaussian() - 1.0},
                                     2.0 * a + 0.5)
                    .ok());
  }
  return data;
}

/// Every bit of a transform output: shape, name, nominal size, column
/// names and types, cells, and labels or targets.
void AddTable(const Dataset& d, BitHash* hash) {
  hash->Add(d.name());
  hash->Add(static_cast<uint64_t>(d.num_rows()));
  hash->Add(static_cast<uint64_t>(d.num_features()));
  hash->AddInt(d.nominal_rows());
  hash->AddInt(d.nominal_features());
  for (size_t j = 0; j < d.num_features(); ++j) {
    hash->Add(d.feature_name(j));
    hash->AddInt(static_cast<int64_t>(d.feature_type(j)));
  }
  for (size_t r = 0; r < d.num_rows(); ++r) {
    for (size_t j = 0; j < d.num_features(); ++j) hash->Add(d.At(r, j));
    hash->AddInt(d.Label(r));
    if (d.task() == TaskType::kRegression) hash->Add(d.Target(r));
  }
}

/// The (scope name, flops, bytes, parallel fraction) of the charge each
/// step of `chain` issues for a transform of `rows` rows.
void AddCharges(const std::vector<const Transformer*>& chain, size_t rows,
                BitHash* hash) {
  hash->Add(static_cast<uint64_t>(chain.size()));
  for (const Transformer* t : chain) {
    const TransformCharge charge = t->ChargeFor(rows);
    hash->Add(t->Name());
    hash->Add(charge.flops);
    hash->Add(charge.bytes);
    hash->Add(charge.parallel_fraction);
  }
}

// The digests were recorded before every transformer became a row kernel
// run by one chain pass (each used to build its own output table): any
// change to a cell, a column name or type, a label or a charge moves them.
TEST_F(PreprocessTest, RowChainMatchesPinnedDigest) {
  struct Table {
    std::string name;
    Dataset fit;
    Dataset test;
  };
  std::vector<Table> tables;
  const Dataset mixed = MixedTable(37, 5, false);
  tables.push_back({"mixed", mixed, MixedTable(11, 6, true)});
  // A view sharing the fitted table's schema object.
  tables.push_back({"mixed_view", mixed, mixed.Subset({4, 1, 30, 2, 2})});
  tables.push_back({"categorical", CategoricalTable(29, 7),
                    CategoricalTable(9, 8)});
  tables.push_back({"numeric", NumericTable(31, 9), NumericTable(6, 10)});

  using Factory = std::unique_ptr<Transformer> (*)();
  const std::vector<std::pair<std::string, Factory>> kinds = {
      {"imputer", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<MeanModeImputer>();
       }},
      {"one_hot", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<OneHotEncoder>();
       }},
      {"standard", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<Scaler>(ScalerKind::kStandard);
       }},
      {"minmax", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<Scaler>(ScalerKind::kMinMax);
       }},
      {"binner", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<QuantileBinner>(4);
       }},
      {"variance", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<VarianceThreshold>(0.0);
       }},
      {"k_best", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<SelectKBest>(2);
       }},
      {"pca", []() -> std::unique_ptr<Transformer> {
         return std::make_unique<Pca>(2);
       }},
  };

  std::vector<std::pair<std::string, uint64_t>> got;
  // Runs `chain` (fitted) on `test`, digesting output and charges, and
  // checks on a meter that the run charged exactly those: one charge per
  // step, under the step's name.
  const auto digest = [&](const std::string& name,
                          const std::vector<const Transformer*>& chain,
                          const Dataset& test) {
    EnergyMeter meter(&model_);
    meter.Start(ctx_.Now());
    ctx_.SetMeter(&meter);
    ChargeScope scope(&ctx_, "chain");
    Result<Dataset> out = RunTransformChain(chain, test, &ctx_);
    ctx_.SetMeter(nullptr);
    ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
    std::map<std::string, ScopeCharge> expected;
    for (const Transformer* t : chain) {
      const TransformCharge charge = t->ChargeFor(test.num_rows());
      ScopeCharge& row = expected["chain/" + t->Name()];
      row.flops += charge.flops;
      row.bytes += charge.bytes;
      ++row.charges;
    }
    const EnergyReading reading = meter.Stop(ctx_.Now());
    ASSERT_EQ(reading.scopes.size(), expected.size()) << name;
    for (const auto& [path, row] : expected) {
      ASSERT_EQ(reading.scopes.count(path), 1u) << name << ": " << path;
      const ScopeCharge& metered = reading.scopes.at(path);
      EXPECT_EQ(metered.charges, row.charges) << name << ": " << path;
      EXPECT_EQ(metered.flops, row.flops) << name << ": " << path;
      EXPECT_EQ(metered.bytes, row.bytes) << name << ": " << path;
    }
    BitHash hash;
    AddTable(*out, &hash);
    AddCharges(chain, test.num_rows(), &hash);
    got.emplace_back(name, hash.value());
  };

  for (const Table& table : tables) {
    // The filters and the projection assume NaN-free input: they see the
    // imputed tables.
    MeanModeImputer imputer;
    ASSERT_TRUE(imputer.Fit(table.fit, &ctx_).ok());
    const Dataset fit_imputed = imputer.Transform(table.fit, &ctx_).value();
    const Dataset test_imputed =
        imputer.Transform(table.test, &ctx_).value();
    for (const auto& [kind, make] : kinds) {
      const bool needs_complete =
          kind == "variance" || kind == "k_best" || kind == "pca";
      const Dataset& fit = needs_complete ? fit_imputed : table.fit;
      const Dataset& test = needs_complete ? test_imputed : table.test;
      std::unique_ptr<Transformer> t = make();
      ASSERT_TRUE(t->Fit(fit, &ctx_).ok()) << table.name << "/" << kind;
      digest(table.name + "/" + kind, {t.get()}, test);
    }

    // The default chain: imputer, one-hot, standard scaler.
    MeanModeImputer chain_imputer;
    OneHotEncoder one_hot;
    Scaler scaler(ScalerKind::kStandard);
    Dataset current = table.fit;
    for (Transformer* t : std::vector<Transformer*>{&chain_imputer, &one_hot,
                                                    &scaler}) {
      ASSERT_TRUE(t->Fit(current, &ctx_).ok());
      current = t->Transform(current, &ctx_).value();
    }
    digest(table.name + "/default_chain", {&chain_imputer, &one_hot, &scaler},
           table.test);
  }

  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"mixed/imputer", 0x1741da9c32a34036ULL},
      {"mixed/one_hot", 0x4aedfaed984eda42ULL},
      {"mixed/standard", 0xf3b0b2cbf1cda451ULL},
      {"mixed/minmax", 0xb5963c66a90d177bULL},
      {"mixed/binner", 0x5c399a86357665d9ULL},
      {"mixed/variance", 0x74cb27a70386239cULL},
      {"mixed/k_best", 0x529e529be187246cULL},
      {"mixed/pca", 0x6773c5fe56c57192ULL},
      {"mixed/default_chain", 0x30f6a52bc7a9ffadULL},
      {"mixed_view/imputer", 0x4a797d059400812aULL},
      {"mixed_view/one_hot", 0xa1065836fff4fd06ULL},
      {"mixed_view/standard", 0x82cd5520fc2cea2eULL},
      {"mixed_view/minmax", 0x58ad76c774fee464ULL},
      {"mixed_view/binner", 0x10d915e5911c9c9fULL},
      {"mixed_view/variance", 0xda34e0c1fbadf448ULL},
      {"mixed_view/k_best", 0x17c10ab837c2af5dULL},
      {"mixed_view/pca", 0x31e2cd870e887b3cULL},
      {"mixed_view/default_chain", 0x587018fb7950e641ULL},
      {"categorical/imputer", 0x19ce442d72aadb56ULL},
      {"categorical/one_hot", 0xb024f6bfe7ef750aULL},
      {"categorical/standard", 0xe704272253028510ULL},
      {"categorical/minmax", 0x4104cbeb9d8b34afULL},
      {"categorical/binner", 0x4a38653f781b66d6ULL},
      {"categorical/variance", 0x64c602d018c3377cULL},
      {"categorical/k_best", 0x5b31ba98034be848ULL},
      {"categorical/pca", 0xee1716370d3dd99cULL},
      {"categorical/default_chain", 0x442c884b6d85ef65ULL},
      {"numeric/imputer", 0x14f955565f7d47edULL},
      {"numeric/one_hot", 0x0648f070e3bdda2dULL},
      {"numeric/standard", 0x3565ca8fbefdc6daULL},
      {"numeric/minmax", 0x4cc520ebbeddc28cULL},
      {"numeric/binner", 0x742dadeb5f43fed4ULL},
      {"numeric/variance", 0x074c5ac7b9cff555ULL},
      {"numeric/k_best", 0xb42876a8b34fd735ULL},
      {"numeric/pca", 0x5440cdb9e00c515eULL},
      {"numeric/default_chain", 0x1645f8c7bb976d82ULL},
  };
  ASSERT_EQ(got.size(), pinned.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, pinned[i].first);
    EXPECT_EQ(got[i].second, pinned[i].second)
        << got[i].first << ": 0x" << std::hex << got[i].second;
  }
}

TEST_F(PreprocessTest, ChainFailsBeforeAnyCharge) {
  const Dataset data = MixedTable(12, 3, false);
  MeanModeImputer imputer;
  OneHotEncoder one_hot;
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  const std::vector<const Transformer*> chain = {&imputer, &one_hot};
  FlopsMeter metered(&ctx_);
  const double before = metered.flops();
  // The second step is not fitted.
  EXPECT_EQ(RunTransformChain(chain, data, &ctx_).status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(metered.flops(), before);
  // The first step sees the wrong width.
  ASSERT_TRUE(one_hot.Fit(data, &ctx_).ok());
  const double fitted = metered.flops();
  Dataset narrow("narrow", 2, 3);
  ASSERT_TRUE(narrow.AppendRow({1.0, 2.0}, 0).ok());
  EXPECT_EQ(RunTransformChain(chain, narrow, &ctx_).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(metered.flops(), fitted);
}

}  // namespace
}  // namespace green
