#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <set>

#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/scaler.h"
#include "green/table/csv.h"
#include "green/table/dataset.h"
#include "green/table/metafeatures.h"
#include "green/table/split.h"

namespace green {
namespace {

Dataset TinyDataset() {
  Dataset data("tiny", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  EXPECT_TRUE(data.AppendRow({1.0, 0.0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({2.0, 1.0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({3.0, 0.0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({4.0, 2.0}, 1).ok());
  return data;
}

/// Balanced k-class dataset with n rows and d features.
Dataset MakeDataset(size_t n, size_t d, int k, uint64_t seed = 1) {
  Dataset data("made", d, k);
  Rng rng(seed);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.NextGaussian();
    EXPECT_TRUE(
        data.AppendRow(row, static_cast<int>(i % static_cast<size_t>(k)))
            .ok());
  }
  return data;
}

// --- Dataset ---

TEST(DatasetTest, ShapeAndAccess) {
  const Dataset data = TinyDataset();
  EXPECT_EQ(data.num_rows(), 4u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_EQ(data.num_classes(), 2);
  EXPECT_DOUBLE_EQ(data.At(2, 0), 3.0);
  EXPECT_EQ(data.Label(3), 1);
  EXPECT_EQ(data.NumCategorical(), 1u);
}

TEST(DatasetTest, RejectsBadRows) {
  Dataset data("bad", 2, 2);
  EXPECT_FALSE(data.AppendRow({1.0}, 0).ok());          // Wrong width.
  EXPECT_FALSE(data.AppendRow({1.0, 2.0}, 2).ok());     // Label too big.
  EXPECT_FALSE(data.AppendRow({1.0, 2.0}, -1).ok());    // Negative label.
  EXPECT_EQ(data.num_rows(), 0u);
}

TEST(DatasetTest, ClassCounts) {
  const Dataset data = TinyDataset();
  const std::vector<int> counts = data.ClassCounts();
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
}

TEST(DatasetTest, SubsetPreservesMetadata) {
  const Dataset data = TinyDataset();
  const Dataset sub = data.Subset({1, 3});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.Label(0), 1);
  EXPECT_DOUBLE_EQ(sub.At(1, 0), 4.0);
  EXPECT_EQ(sub.feature_type(1), FeatureType::kCategorical);
  EXPECT_EQ(sub.name(), "tiny");
}

// --- schema copy-on-write ---

TEST(SchemaTest, UnsetNamesReadDefault) {
  Dataset data = TinyDataset();
  EXPECT_EQ(data.feature_name(0), "f0");
  EXPECT_EQ(data.feature_name(1), "f1");
  data.SetFeatureName(1, "b");
  EXPECT_EQ(data.feature_name(0), "f0");
  EXPECT_EQ(data.feature_name(1), "b");
}

TEST(SchemaTest, MetadataMutatorsKeepViewAndMatrix) {
  const Dataset data = TinyDataset();
  Dataset view = data.Subset({3, 1});
  ASSERT_TRUE(view.IsView());
  const void* matrix = view.StorageId();
  view.SetFeatureName(0, "renamed");
  EXPECT_TRUE(view.IsView());
  EXPECT_EQ(view.StorageId(), matrix);
  view.SetFeatureType(0, FeatureType::kCategorical);
  EXPECT_TRUE(view.IsView());
  EXPECT_EQ(view.StorageId(), matrix);
  EXPECT_EQ(view.StorageId(), data.StorageId());
  EXPECT_EQ(view.feature_name(0), "renamed");
  EXPECT_EQ(view.feature_type(0), FeatureType::kCategorical);
  EXPECT_DOUBLE_EQ(view.At(0, 0), 4.0);
}

TEST(SchemaTest, MutationNotVisibleThroughSourceOrCopy) {
  const Dataset data = TinyDataset();
  Dataset view = data.Subset({0, 1});
  const Dataset copy = view;
  view.SetFeatureName(0, "renamed");
  view.SetFeatureType(0, FeatureType::kCategorical);
  EXPECT_EQ(data.feature_name(0), "f0");
  EXPECT_EQ(data.feature_type(0), FeatureType::kNumeric);
  EXPECT_EQ(copy.feature_name(0), "f0");
  EXPECT_EQ(copy.feature_type(0), FeatureType::kNumeric);

  Dataset owned = TinyDataset();
  const Dataset owned_copy = owned;
  owned.SetFeatureName(1, "b");
  EXPECT_EQ(owned_copy.feature_name(1), "f1");
  EXPECT_EQ(owned.StorageId(), owned_copy.StorageId());
}

TEST(SchemaTest, SelectorCarriesNamesAndTypes) {
  VirtualClock clock;
  EnergyModel model(MachineModel::Minimal());
  ExecutionContext ctx(&clock, &model, 1);
  Dataset data("wide", 3, 2);
  data.SetFeatureType(2, FeatureType::kCategorical);
  data.SetFeatureName(2, "b");
  ASSERT_TRUE(data.AppendRow({5.0, 1.0, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({5.0, 2.0, 2.0}, 1).ok());
  VarianceThreshold selector(0.0);  // Drops the constant column 0.
  ASSERT_TRUE(selector.Fit(data, &ctx).ok());
  auto picked = selector.Transform(data, &ctx);
  ASSERT_TRUE(picked.ok());
  ASSERT_EQ(picked->num_features(), 2u);
  // An unset source name stays the source column's default.
  EXPECT_EQ(picked->feature_name(0), "f1");
  EXPECT_EQ(picked->feature_type(0), FeatureType::kNumeric);
  EXPECT_EQ(picked->feature_name(1), "b");
  EXPECT_EQ(picked->feature_type(1), FeatureType::kCategorical);
  EXPECT_DOUBLE_EQ(picked->At(1, 1), 2.0);
  EXPECT_EQ(picked->labels(), data.labels());

  // A renamed input renames the output; the fitted schema stays as it was.
  Dataset renamed = data;
  renamed.SetFeatureName(1, "a");
  auto out = selector.Transform(renamed, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->feature_name(0), "a");
  EXPECT_EQ(picked->feature_name(0), "f1");
}

TEST(SchemaTest, ScalerAndImputerKeepInputNames) {
  VirtualClock clock;
  EnergyModel model(MachineModel::Minimal());
  ExecutionContext ctx(&clock, &model, 1);
  Dataset data = TinyDataset();
  ASSERT_TRUE(data.AppendRow({NAN, 1.0}, 0).ok());
  data.SetFeatureName(0, "a");
  data.SetFeatureName(1, "b");

  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx).ok());
  auto scaled = scaler.Transform(data, &ctx);
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ(scaled->feature_name(0), "a");
  EXPECT_EQ(scaled->feature_name(1), "b");
  EXPECT_EQ(scaled->feature_type(1), FeatureType::kCategorical);

  MeanModeImputer imputer;
  ASSERT_TRUE(imputer.Fit(data, &ctx).ok());
  auto imputed = imputer.Transform(data, &ctx);
  ASSERT_TRUE(imputed.ok());
  ASSERT_FALSE(std::isnan(imputed->At(4, 0)));  // Copied, not a view.
  EXPECT_EQ(imputed->feature_name(0), "a");
  EXPECT_EQ(imputed->feature_name(1), "b");
}

// --- splits ---

TEST(SplitTest, StratifiedFractions) {
  const Dataset data = MakeDataset(300, 3, 3);
  Rng rng(5);
  const TrainTestIndices split = StratifiedSplit(data, 0.66, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), data.num_rows());
  EXPECT_NEAR(static_cast<double>(split.train.size()) /
                  static_cast<double>(data.num_rows()),
              0.66, 0.02);
  // Stratification: each class keeps its share on both sides.
  const Dataset train = data.Subset(split.train);
  const std::vector<int> counts = train.ClassCounts();
  for (int c : counts) EXPECT_NEAR(c, 66, 2);
}

TEST(SplitTest, SplitIsDisjointAndCovering) {
  const Dataset data = MakeDataset(100, 2, 2);
  Rng rng(7);
  const TrainTestIndices split = StratifiedSplit(data, 0.5, &rng);
  std::set<size_t> all(split.train.begin(), split.train.end());
  for (size_t t : split.test) {
    EXPECT_TRUE(all.insert(t).second) << "row in both sides";
  }
  EXPECT_EQ(all.size(), data.num_rows());
}

TEST(SplitTest, KFoldPartitions) {
  const Dataset data = MakeDataset(100, 2, 4);
  Rng rng(9);
  const auto folds = StratifiedKFold(data, 5, &rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<size_t> seen;
  for (const auto& fold : folds) {
    EXPECT_NEAR(fold.size(), 20, 1);
    for (size_t r : fold) EXPECT_TRUE(seen.insert(r).second);
  }
  EXPECT_EQ(seen.size(), data.num_rows());
}

TEST(SplitTest, SamplePerClassCaps) {
  const Dataset data = MakeDataset(90, 2, 3);
  Rng rng(11);
  const auto sample = SamplePerClass(data, 5, &rng);
  EXPECT_EQ(sample.size(), 15u);
  const Dataset sub = data.Subset(sample);
  for (int c : sub.ClassCounts()) EXPECT_EQ(c, 5);
}

TEST(SplitTest, SamplePerClassExhaustsSmallClasses) {
  const Dataset data = MakeDataset(10, 2, 2);
  Rng rng(13);
  const auto sample = SamplePerClass(data, 100, &rng);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(SplitTest, SampleRows) {
  const Dataset data = MakeDataset(50, 2, 2);
  Rng rng(15);
  EXPECT_EQ(SampleRows(data, 20, &rng).size(), 20u);
  EXPECT_EQ(SampleRows(data, 500, &rng).size(), 50u);
}

TEST(SplitTest, DeterministicGivenSeed) {
  const Dataset data = MakeDataset(60, 2, 2);
  Rng rng1(21);
  Rng rng2(21);
  EXPECT_EQ(StratifiedSplit(data, 0.5, &rng1).train,
            StratifiedSplit(data, 0.5, &rng2).train);
}

// Property sweep: every class present on both sides for many fractions.
class SplitFractionTest : public ::testing::TestWithParam<double> {};

TEST_P(SplitFractionTest, BothSidesCoverAllClasses) {
  const Dataset data = MakeDataset(120, 3, 4);
  Rng rng(33);
  const TrainTestIndices split = StratifiedSplit(data, GetParam(), &rng);
  for (int c : data.Subset(split.train).ClassCounts()) EXPECT_GT(c, 0);
  for (int c : data.Subset(split.test).ClassCounts()) EXPECT_GT(c, 0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitFractionTest,
                         ::testing::Values(0.2, 0.34, 0.5, 0.66, 0.8));

// --- CSV ---

TEST(CsvTest, RoundTrip) {
  Dataset data = TinyDataset();
  data.Set(0, 0, NAN);  // Exercise a missing value.
  const std::string text = ToCsvString(data);
  auto parsed = FromCsvString(text, "tiny");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 4u);
  EXPECT_EQ(parsed->num_classes(), 2);
  EXPECT_TRUE(std::isnan(parsed->At(0, 0)));
  EXPECT_DOUBLE_EQ(parsed->At(3, 0), 4.0);
  EXPECT_EQ(parsed->feature_type(1), FeatureType::kCategorical);
  EXPECT_EQ(parsed->Label(1), 1);
}

TEST(CsvTest, RejectsMalformed) {
  EXPECT_FALSE(FromCsvString("", "x").ok());
  EXPECT_FALSE(FromCsvString("a,b\n1,2\n", "x").ok());  // No label col.
  EXPECT_FALSE(FromCsvString("a,label\n1\n", "x").ok());  // Short row.
  EXPECT_FALSE(FromCsvString("a,label\n", "x").ok());     // No rows.
  EXPECT_FALSE(FromCsvString("a,label\n1,-3\n", "x").ok());  // Neg label.
}

TEST(CsvTest, RejectsNonNumericCells) {
  // A word where a number belongs must be an error, not a silent 0.
  auto parsed = FromCsvString("a,b,label\n1,hello,0\n", "x");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("non-numeric"),
            std::string::npos);
  // Trailing garbage after a valid prefix is equally hostile.
  EXPECT_FALSE(FromCsvString("a,label\n12abc,0\n", "x").ok());
  EXPECT_FALSE(FromCsvString("a,label\n1e,0\n", "x").ok());
  // Scientific notation and signs are legitimate numbers.
  auto fine = FromCsvString("a,b,label\n-1.5e3,+2,1\n", "x");
  ASSERT_TRUE(fine.ok());
  EXPECT_DOUBLE_EQ(fine->At(0, 0), -1500.0);
}

TEST(CsvTest, RejectsGarbageLabels) {
  auto parsed = FromCsvString("a,label\n1,yes\n", "x");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("non-integer label"),
            std::string::npos);
  EXPECT_FALSE(FromCsvString("a,label\n1,2x\n", "x").ok());
  EXPECT_FALSE(FromCsvString("a,label\n1,\n", "x").ok());  // Empty label.
  EXPECT_FALSE(FromCsvString("a,label\n1,99999999\n", "x").ok());  // Range.
  EXPECT_FALSE(
      FromCsvString("a,label\n1,99999999999999999999\n", "x").ok());
}

TEST(CsvTest, RejectsTruncatedAndRaggedRows) {
  // A file cut off mid-row (e.g. interrupted download) must error.
  EXPECT_FALSE(FromCsvString("a,b,label\n1,2,0\n3,4", "x").ok());
  // Ragged rows: wrong field count either way.
  EXPECT_FALSE(FromCsvString("a,b,label\n1,2,0\n1,2,3,0\n", "x").ok());
  EXPECT_FALSE(FromCsvString("a,b,label\n1,2,0\n1,0\n", "x").ok());
  // Trailing newline and blank lines between rows are fine.
  auto ok = FromCsvString("a,label\n1,0\n\n2,1\n\n", "x");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_rows(), 2u);
}

TEST(CsvTest, HeaderOnlyAndWhitespaceFiles) {
  EXPECT_FALSE(FromCsvString("\n\n\n", "x").ok());
  EXPECT_FALSE(FromCsvString("   \n", "x").ok());
  // Missing feature values (empty cells) are NaN, not errors.
  auto parsed = FromCsvString("a,b,label\n,2,0\n1,,1\n", "x");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed->At(0, 0)));
  EXPECT_TRUE(std::isnan(parsed->At(1, 1)));
}

TEST(CsvTest, FileRoundTrip) {
  const Dataset data = TinyDataset();
  const std::string path = ::testing::TempDir() + "/green_csv_test.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto loaded = ReadCsv(path, "tiny");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), data.num_rows());
  EXPECT_FALSE(ReadCsv("/nonexistent/no.csv", "x").ok());
}

TEST(CsvTest, WriteFailingAtCloseIsAnError) {
  // /dev/full accepts the buffered write and fails the flush in fclose.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const Status status = WriteCsv(TinyDataset(), "/dev/full");
  EXPECT_EQ(status.code(), Status::Code::kIoError) << status.ToString();
}

TEST(CsvTest, ReadErrorIsNotAShortFile) {
  // Opening a directory succeeds; reading it fails.
  const Result<Dataset> read = ReadCsv(::testing::TempDir(), "x");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kIoError);
}

// --- MetaFeatures ---

TEST(MetaFeaturesTest, BasicValues) {
  const Dataset data = MakeDataset(1000, 10, 2);
  const MetaFeatures mf = ComputeMetaFeatures(data);
  EXPECT_NEAR(mf.log_rows, 3.0, 1e-9);
  EXPECT_NEAR(mf.log_features, 1.0, 1e-9);
  EXPECT_NEAR(mf.log_classes, std::log10(2.0), 1e-9);
  EXPECT_NEAR(mf.class_entropy, 1.0, 1e-6);  // Perfectly balanced.
  EXPECT_NEAR(mf.class_imbalance, 0.0, 1e-9);
  EXPECT_EQ(mf.categorical_fraction, 0.0);
  EXPECT_EQ(mf.missing_fraction, 0.0);
}

TEST(MetaFeaturesTest, UsesNominalSizeWhenSet) {
  Dataset data = MakeDataset(100, 4, 2);
  data.SetNominalSize(100000, 400);
  const MetaFeatures mf = ComputeMetaFeatures(data);
  EXPECT_NEAR(mf.log_rows, 5.0, 1e-9);
  EXPECT_NEAR(mf.log_features, std::log10(400.0), 1e-9);
}

TEST(MetaFeaturesTest, ImbalanceDetected) {
  Dataset data("imb", 1, 2);
  for (int i = 0; i < 90; ++i) ASSERT_TRUE(data.AppendRow({0.0}, 0).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(data.AppendRow({0.0}, 1).ok());
  const MetaFeatures mf = ComputeMetaFeatures(data);
  EXPECT_GT(mf.class_imbalance, 0.8);
  EXPECT_LT(mf.class_entropy, 0.6);
}

TEST(MetaFeaturesTest, DistanceIsMetricLike) {
  const MetaFeatures a = ComputeMetaFeatures(MakeDataset(100, 5, 2));
  const MetaFeatures b = ComputeMetaFeatures(MakeDataset(100, 5, 2, 9));
  const MetaFeatures c = ComputeMetaFeatures(MakeDataset(5000, 50, 10));
  EXPECT_NEAR(MetaFeatureDistance(a, a), 0.0, 1e-12);
  // Same-shape datasets are closer than differently-shaped ones.
  EXPECT_LT(MetaFeatureDistance(a, b), MetaFeatureDistance(a, c));
}

TEST(MetaFeaturesTest, VectorDimensionStable) {
  const MetaFeatures mf;
  EXPECT_EQ(mf.ToVector().size(), MetaFeatures::kDim);
}

}  // namespace
}  // namespace green
