#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/energy/energy_meter.h"
#include "green/ml/kernels/tree_kernels.h"
#include "green/ml/metrics.h"
#include "green/ml/models/adaboost.h"
#include "green/ml/models/attention_few_shot.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/models/extra_trees.h"
#include "green/ml/models/gradient_boosting.h"
#include "green/ml/models/knn.h"
#include "green/ml/models/logistic_regression.h"
#include "green/ml/models/mlp.h"
#include "green/ml/models/naive_bayes.h"
#include "green/ml/models/random_forest.h"
#include "green/table/split.h"
#include "bit_hash.h"
#include "flops_meter.h"

namespace green {
namespace {

/// Easy, well-separated task every competent learner should ace.
Dataset EasyTask(int classes = 2, size_t rows = 300, uint64_t seed = 3,
                 size_t features = 8) {
  SyntheticSpec spec;
  spec.name = "easy";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = features;
  spec.num_classes = classes;
  spec.clusters_per_class = 1;
  spec.separation = 4.0;
  spec.label_noise = 0.0;
  spec.seed = seed;
  auto data = GenerateSynthetic(spec);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<Estimator>()> make;
  double min_easy_accuracy;
};

const std::vector<ModelCase>& AllModels() {
  static const std::vector<ModelCase>* kCases = [] {
  auto* cases_ptr = new std::vector<ModelCase>();
  auto& cases = *cases_ptr;
  cases.push_back({"decision_tree",
                   [] {
                     DecisionTreeParams p;
                     p.max_depth = 8;
                     return std::make_unique<DecisionTree>(p);
                   },
                   0.9});
  cases.push_back({"random_forest",
                   [] {
                     RandomForestParams p;
                     p.num_trees = 16;
                     return std::make_unique<RandomForest>(p);
                   },
                   0.9});
  cases.push_back({"extra_trees",
                   [] {
                     ExtraTreesParams p;
                     p.num_trees = 16;
                     return std::make_unique<ExtraTrees>(p);
                   },
                   0.9});
  cases.push_back({"gradient_boosting",
                   [] {
                     GradientBoostingParams p;
                     p.num_rounds = 20;
                     return std::make_unique<GradientBoosting>(p);
                   },
                   0.9});
  cases.push_back({"logistic_regression",
                   [] {
                     LogisticRegressionParams p;
                     p.epochs = 25;
                     return std::make_unique<LogisticRegression>(p);
                   },
                   0.9});
  cases.push_back({"knn",
                   [] { return std::make_unique<Knn>(KnnParams{}); },
                   0.9});
  cases.push_back({"naive_bayes",
                   [] {
                     return std::make_unique<GaussianNaiveBayes>(
                         NaiveBayesParams{});
                   },
                   0.9});
  cases.push_back({"mlp",
                   [] {
                     MlpParams p;
                     p.epochs = 30;
                     return std::make_unique<Mlp>(p);
                   },
                   0.85});
  cases.push_back({"attention_few_shot",
                   [] {
                     return std::make_unique<AttentionFewShot>(
                         AttentionFewShotParams{});
                   },
                   0.85});
  return cases_ptr;
  }();
  return *kCases;
}

class AllModelsTest : public ::testing::TestWithParam<size_t> {
 protected:
  AllModelsTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {}

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
};

TEST_P(AllModelsTest, LearnsSeparableData) {
  const ModelCase& c = AllModels()[GetParam()];
  const Dataset data = EasyTask();
  Rng rng(1);
  const TrainTestData split =
      Materialize(data, StratifiedSplit(data, 0.66, &rng));
  auto estimator = c.make();
  ASSERT_TRUE(estimator->Fit(split.train, &ctx_).ok()) << c.name;
  auto preds = estimator->Predict(split.test, &ctx_);
  ASSERT_TRUE(preds.ok()) << c.name;
  const double acc = BalancedAccuracy(split.test.labels(), preds.value(),
                                      data.num_classes());
  EXPECT_GE(acc, c.min_easy_accuracy) << c.name;
}

TEST_P(AllModelsTest, ProbabilitiesAreDistributions) {
  const ModelCase& c = AllModels()[GetParam()];
  const Dataset data = EasyTask(3);
  auto estimator = c.make();
  ASSERT_TRUE(estimator->Fit(data, &ctx_).ok());
  auto proba = estimator->PredictProba(data, &ctx_);
  ASSERT_TRUE(proba.ok());
  ASSERT_EQ(proba->size(), data.num_rows());
  for (const auto& row : *proba) {
    ASSERT_EQ(row.size(), 3u);
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 + 1e-9);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST_P(AllModelsTest, RefusesUnfittedPredict) {
  const ModelCase& c = AllModels()[GetParam()];
  auto estimator = c.make();
  EXPECT_FALSE(estimator->PredictProba(EasyTask(), &ctx_).ok());
}

TEST_P(AllModelsTest, RefusesEmptyTraining) {
  const ModelCase& c = AllModels()[GetParam()];
  Dataset empty("e", 3, 2);
  auto estimator = c.make();
  EXPECT_FALSE(estimator->Fit(empty, &ctx_).ok());
}

TEST_P(AllModelsTest, ChargesTrainingWork) {
  const ModelCase& c = AllModels()[GetParam()];
  const Dataset data = EasyTask();
  FlopsMeter metered(&ctx_);
  auto estimator = c.make();
  ASSERT_TRUE(estimator->Fit(data, &ctx_).ok());
  EXPECT_GT(metered.flops(), 0.0) << c.name;
}

TEST_P(AllModelsTest, InferenceCostPositiveAfterFit) {
  const ModelCase& c = AllModels()[GetParam()];
  const Dataset data = EasyTask();
  auto estimator = c.make();
  ASSERT_TRUE(estimator->Fit(data, &ctx_).ok());
  EXPECT_GT(estimator->InferenceFlopsPerRow(data.num_features()), 0.0);
  EXPECT_GT(estimator->ComplexityProxy(), 0.0);
  EXPECT_EQ(estimator->num_classes(), 2);
  EXPECT_TRUE(estimator->fitted());
}

INSTANTIATE_TEST_SUITE_P(EveryModel, AllModelsTest,
                         ::testing::Range<size_t>(0, 9));

// --- model-specific behaviours ---

class ModelsTest : public ::testing::Test {
 protected:
  ModelsTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {}

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
};

TEST_F(ModelsTest, TreeDepthLimitRespected) {
  const Dataset data = EasyTask(2, 400);
  DecisionTreeParams shallow;
  shallow.max_depth = 2;
  DecisionTree small(shallow);
  ASSERT_TRUE(small.Fit(data, &ctx_).ok());
  EXPECT_LE(small.num_nodes(), 7u);  // Depth 2 => at most 7 nodes.
  DecisionTreeParams deep;
  deep.max_depth = 10;
  DecisionTree big(deep);
  ASSERT_TRUE(big.Fit(data, &ctx_).ok());
  EXPECT_GE(big.num_nodes(), small.num_nodes());
}

TEST_F(ModelsTest, TreeDeterministicForSeed) {
  const Dataset data = EasyTask();
  DecisionTreeParams p;
  p.max_features_fraction = 0.5;
  p.seed = 9;
  DecisionTree a(p);
  DecisionTree b(p);
  ASSERT_TRUE(a.Fit(data, &ctx_).ok());
  ASSERT_TRUE(b.Fit(data, &ctx_).ok());
  auto pa = a.Predict(data, &ctx_);
  auto pb = b.Predict(data, &ctx_);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(pa.value(), pb.value());
}

TEST_F(ModelsTest, ForestBeatsSingleTreeOnNoisyData) {
  SyntheticSpec spec;
  spec.num_rows = 500;
  spec.num_features = 12;
  spec.num_informative = 6;
  spec.separation = 1.4;
  spec.label_noise = 0.1;
  spec.clusters_per_class = 2;
  spec.seed = 11;
  auto data = GenerateSynthetic(spec);
  ASSERT_TRUE(data.ok());
  Rng rng(2);
  const TrainTestData split =
      Materialize(*data, StratifiedSplit(*data, 0.66, &rng));

  DecisionTreeParams tp;
  tp.max_depth = 10;
  DecisionTree tree(tp);
  RandomForestParams fp;
  fp.num_trees = 32;
  fp.max_depth = 10;
  RandomForest forest(fp);
  ASSERT_TRUE(tree.Fit(split.train, &ctx_).ok());
  ASSERT_TRUE(forest.Fit(split.train, &ctx_).ok());
  const double tree_acc =
      BalancedAccuracy(split.test.labels(),
                       tree.Predict(split.test, &ctx_).value(), 2);
  const double forest_acc =
      BalancedAccuracy(split.test.labels(),
                       forest.Predict(split.test, &ctx_).value(), 2);
  EXPECT_GE(forest_acc, tree_acc - 0.02);
}

TEST_F(ModelsTest, ForestInferenceCostScalesWithTrees) {
  const Dataset data = EasyTask();
  RandomForestParams small;
  small.num_trees = 4;
  RandomForestParams big;
  big.num_trees = 32;
  RandomForest a(small);
  RandomForest b(big);
  ASSERT_TRUE(a.Fit(data, &ctx_).ok());
  ASSERT_TRUE(b.Fit(data, &ctx_).ok());
  EXPECT_GT(b.InferenceFlopsPerRow(8), 4.0 * a.InferenceFlopsPerRow(8));
}

TEST_F(ModelsTest, BoostingRoundsIncreaseComplexity) {
  const Dataset data = EasyTask();
  GradientBoostingParams few;
  few.num_rounds = 5;
  GradientBoostingParams many;
  many.num_rounds = 25;
  GradientBoosting a(few);
  GradientBoosting b(many);
  ASSERT_TRUE(a.Fit(data, &ctx_).ok());
  ASSERT_TRUE(b.Fit(data, &ctx_).ok());
  EXPECT_EQ(a.rounds_fitted(), 5);
  EXPECT_EQ(b.rounds_fitted(), 25);
  EXPECT_GT(b.ComplexityProxy(), a.ComplexityProxy());
}

TEST_F(ModelsTest, KnnInferenceDominatedByTrainSize) {
  const Dataset small_train = EasyTask(2, 100);
  const Dataset big_train = EasyTask(2, 400);
  Knn a{KnnParams{}};
  Knn b{KnnParams{}};
  ASSERT_TRUE(a.Fit(small_train, &ctx_).ok());
  ASSERT_TRUE(b.Fit(big_train, &ctx_).ok());
  EXPECT_NEAR(b.InferenceFlopsPerRow(8) / a.InferenceFlopsPerRow(8), 4.0,
              0.1);
}

TEST_F(ModelsTest, KnnFeatureMismatchRejected) {
  Knn knn{KnnParams{}};
  ASSERT_TRUE(knn.Fit(EasyTask(), &ctx_).ok());
  Dataset wrong("w", 3, 2);
  ASSERT_TRUE(wrong.AppendRow({1, 2, 3}, 0).ok());
  EXPECT_FALSE(knn.PredictProba(wrong, &ctx_).ok());
}

TEST_F(ModelsTest, LinearModelsCheapestAtInference) {
  const Dataset data = EasyTask();
  LogisticRegression logistic{LogisticRegressionParams{}};
  Knn knn{KnnParams{}};
  ASSERT_TRUE(logistic.Fit(data, &ctx_).ok());
  ASSERT_TRUE(knn.Fit(data, &ctx_).ok());
  EXPECT_LT(logistic.InferenceFlopsPerRow(8),
            knn.InferenceFlopsPerRow(8));
}

TEST_F(ModelsTest, FewShotRespectsClassLimit) {
  const Dataset data = EasyTask(12, 360);  // 12 > the 10-class limit.
  AttentionFewShot model{AttentionFewShotParams{}};
  ASSERT_TRUE(model.Fit(data, &ctx_).ok());
  EXPECT_TRUE(model.class_limit_exceeded());
  auto proba = model.PredictProba(data, &ctx_);
  ASSERT_TRUE(proba.ok());
  // Degrades to the class prior: near-uniform on balanced data.
  for (double p : (*proba)[0]) EXPECT_NEAR(p, 1.0 / 12.0, 0.02);
}

TEST_F(ModelsTest, FewShotSubsamplesLargeContext) {
  AttentionFewShotParams params;
  params.max_context = 64;
  AttentionFewShot model(params);
  ASSERT_TRUE(model.Fit(EasyTask(2, 500), &ctx_).ok());
  EXPECT_LE(model.context_size(), 64u);
}

TEST_F(ModelsTest, FewShotExecutionCheapInferenceExpensive) {
  // TabPFN's signature asymmetry, at the model level.
  const Dataset data = EasyTask(2, 400);
  AttentionFewShot model{AttentionFewShotParams{}};
  FlopsMeter metered(&ctx_);
  ASSERT_TRUE(model.Fit(data, &ctx_).ok());
  const double fit_work = metered.flops();
  ASSERT_TRUE(model.PredictProba(data, &ctx_).ok());
  const double predict_work = metered.flops() - fit_work;
  EXPECT_GT(predict_work, 5.0 * fit_work);
}

TEST_F(ModelsTest, FewShotPretrainedWeightsIndependentOfData) {
  // Two models fit on different data produce identical predictions for
  // the same context — the "pretrained" weights never adapt.
  AttentionFewShotParams params;
  AttentionFewShot a(params);
  AttentionFewShot b(params);
  const Dataset data = EasyTask(2, 200, 5);
  ASSERT_TRUE(a.Fit(data, &ctx_).ok());
  ASSERT_TRUE(b.Fit(data, &ctx_).ok());
  auto pa = a.PredictProba(data, &ctx_);
  auto pb = b.PredictProba(data, &ctx_);
  ASSERT_TRUE(pa.ok() && pb.ok());
  for (size_t i = 0; i < pa->size(); ++i) {
    EXPECT_DOUBLE_EQ((*pa)[i][0], (*pb)[i][0]);
  }
}

TEST_F(ModelsTest, MlpImprovesWithTraining) {
  SyntheticSpec spec;
  spec.num_rows = 400;
  spec.num_features = 10;
  spec.num_informative = 10;
  spec.separation = 2.0;
  spec.seed = 21;
  auto data = GenerateSynthetic(spec);
  ASSERT_TRUE(data.ok());
  MlpParams short_train;
  short_train.epochs = 1;
  MlpParams long_train;
  long_train.epochs = 40;
  Mlp a(short_train);
  Mlp b(long_train);
  ASSERT_TRUE(a.Fit(*data, &ctx_).ok());
  ASSERT_TRUE(b.Fit(*data, &ctx_).ok());
  const double acc_a = BalancedAccuracy(
      data->labels(), a.Predict(*data, &ctx_).value(), 2);
  const double acc_b = BalancedAccuracy(
      data->labels(), b.Predict(*data, &ctx_).value(), 2);
  EXPECT_GE(acc_b, acc_a - 0.02);
  EXPECT_GT(acc_b, 0.8);
}

TEST_F(ModelsTest, NaiveBayesIsCheapestToTrain) {
  const Dataset data = EasyTask(2, 400);
  auto work_of = [&](Estimator* estimator) {
    FlopsMeter metered(&ctx_);
    EXPECT_TRUE(estimator->Fit(data, &ctx_).ok());
    return metered.flops();
  };
  GaussianNaiveBayes nb{NaiveBayesParams{}};
  RandomForestParams fp;
  fp.num_trees = 32;
  RandomForest forest(fp);
  MlpParams mp;
  Mlp mlp(mp);
  const double nb_work = work_of(&nb);
  EXPECT_LT(nb_work, work_of(&forest));
  EXPECT_LT(nb_work, work_of(&mlp));
}

// --- Flat tree format ---

TEST(FlatTreeTest, WalkRoutesRowsAndChargesPerInternalNode) {
  // Root splits on feature 1 at 0.5; its right child splits on feature 0
  // at -1. Preorder: 0 = root, 1 = left leaf, 2 = right split, 3/4 leaves.
  FlatTree tree(/*width=*/2);
  const int root = tree.AddNode();
  const int left = tree.AddNode();
  tree.leaf(left)[0] = 0.25;
  tree.leaf(left)[1] = 0.75;
  const int inner = tree.AddNode();
  const int inner_left = tree.AddNode();
  tree.leaf(inner_left)[0] = 1.0;
  const int inner_right = tree.AddNode();
  tree.leaf(inner_right)[1] = 1.0;
  tree.SetSplit(inner, /*feature=*/0, -1.0, inner_left, inner_right);
  tree.SetSplit(root, /*feature=*/1, 0.5, left, inner);
  EXPECT_EQ(tree.num_nodes(), 5u);
  EXPECT_TRUE(tree.is_leaf(left));
  EXPECT_FALSE(tree.is_leaf(root));

  double flops = 0.0;
  const double to_left[] = {9.0, 0.5};  // Ties route left.
  const double* leaf = tree.Walk(to_left, &flops);
  EXPECT_EQ(leaf[0], 0.25);
  EXPECT_EQ(leaf[1], 0.75);
  EXPECT_EQ(flops, 2.0);

  const double to_inner_right[] = {0.0, 2.0};
  leaf = tree.Walk(to_inner_right, &flops);
  EXPECT_EQ(leaf[0], 0.0);
  EXPECT_EQ(leaf[1], 1.0);
  EXPECT_EQ(flops, 6.0);  // Two more internal nodes.
}

TEST(FlatTreeTest, IndexRangeCheckRejectsBeyond32BitIds) {
  const size_t max_ok = std::numeric_limits<uint32_t>::max();
  const size_t too_many = size_t{1} << 32;
  EXPECT_TRUE(CheckTreeIndexRange(max_ok, max_ok).ok());
  // A table past the limit.
  EXPECT_EQ(CheckTreeIndexRange(too_many, 1).code(),
            Status::Code::kResourceExhausted);
  // A bootstrap sample (bootstrap_fraction > 1) outgrowing a table that
  // is itself within the limit.
  EXPECT_EQ(CheckTreeIndexRange(10, too_many).code(),
            Status::Code::kResourceExhausted);
}

// --- Table presort ---

TEST(TablePresortTest, OrdersEachColumnByValueThenRowId) {
  Dataset data("ties", 2, 2);
  const double col0[] = {2.0, 1.0, 2.0, 1.0, 0.0};
  for (size_t r = 0; r < 5; ++r) {
    // Column 1 is one tied value: the order falls back to row ids.
    ASSERT_TRUE(data.AppendRow({col0[r], 5.0}, static_cast<int>(r % 2)).ok());
  }
  const TablePresort presort = TablePresort::Build(data).value();
  EXPECT_EQ(presort.num_rows(), 5u);
  EXPECT_EQ(presort.num_features(), 2u);
  const std::vector<uint32_t> order0(presort.order(0), presort.order(0) + 5);
  const std::vector<double> values0(presort.values(0),
                                    presort.values(0) + 5);
  EXPECT_EQ(order0, (std::vector<uint32_t>{4, 1, 3, 0, 2}));
  EXPECT_EQ(values0, (std::vector<double>{0.0, 1.0, 1.0, 2.0, 2.0}));
  const std::vector<uint32_t> order1(presort.order(1), presort.order(1) + 5);
  EXPECT_EQ(order1, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

/// The comparator sort TablePresort::Build once ran: each column's
/// (value, row id) pairs under `<`, ties by row id. The oracle for the
/// radix order below.
void ComparatorPresort(const Dataset& data, size_t f,
                       std::vector<uint32_t>* order,
                       std::vector<double>* values) {
  struct Key {
    double value;
    uint32_t row;
  };
  std::vector<Key> keys(data.num_rows());
  for (size_t r = 0; r < keys.size(); ++r) {
    keys[r] = {data.At(r, f), static_cast<uint32_t>(r)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.row < b.row;
  });
  order->clear();
  values->clear();
  for (const Key& k : keys) {
    order->push_back(k.row);
    values->push_back(k.value);
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// A table of `rows` rows whose columns hold what a key map on the value
/// bits can get wrong: both zeros, infinities, denormals, the extreme
/// finite values, one repeated value, one-hot codes, tie-heavy grids and
/// arbitrary non-NaN bit patterns.
Dataset HostileColumns(size_t rows, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMin = std::numeric_limits<double>::min();
  const std::vector<std::vector<double>> pools = {
      {-0.0, 0.0},
      {-kInf, kInf, -1.5, -0.0, 0.0, 2.0},
      {kDenorm, -kDenorm, 3 * kDenorm, kMin / 2, -kMin / 2, kMin, -kMin,
       0.0, -0.0},
      {kMax, -kMax, 1e308, -1e-308, 0.0, -0.0, -kInf, kInf},
  };
  Dataset data("hostile", pools.size() + 5, 2);
  Rng rng(seed);
  std::vector<double> x(data.num_features());
  for (size_t r = 0; r < rows; ++r) {
    size_t f = 0;
    for (const std::vector<double>& pool : pools) {
      x[f++] = pool[rng.NextBounded(pool.size())];
    }
    x[f++] = 3.25;                                       // all equal
    x[f++] = rng.NextBool() ? 1.0 : 0.0;                 // one-hot
    x[f++] = std::floor(rng.NextGaussian() * 2.0) / 2.0;  // tied grid
    x[f++] = static_cast<double>(rng.NextBounded(40)) * 0.37 - 7.0;
    double v = 0.0;
    do {
      const uint64_t bits = rng.NextUint64();
      std::memcpy(&v, &bits, sizeof v);
    } while (std::isnan(v));
    x[f++] = v;
    EXPECT_TRUE(data.AppendRow(x, static_cast<int>(r % 2)).ok());
  }
  return data;
}

TEST(TablePresortTest, RadixOrderMatchesComparatorSort) {
  int columns = 0;
  uint64_t seed = 1;
  for (size_t rows : std::vector<size_t>{0, 1, 2, 3, 17, 256, 1000, 5000}) {
    const Dataset data = HostileColumns(rows, seed++);
    const TablePresort presort = TablePresort::Build(data).value();
    ASSERT_EQ(presort.num_rows(), rows);
    std::vector<uint32_t> order;
    std::vector<double> values;
    for (size_t f = 0; f < data.num_features(); ++f) {
      ComparatorPresort(data, f, &order, &values);
      for (size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(presort.order(f)[i], order[i])
            << rows << " rows, feature " << f << ", rank " << i;
        ASSERT_EQ(Bits(presort.values(f)[i]), Bits(values[i]))
            << rows << " rows, feature " << f << ", rank " << i;
      }
      ++columns;
    }
  }
  EXPECT_EQ(columns, 8 * 9);
}

/// Classification task whose features sit on a coarse grid, so every
/// column has many tied values.
Dataset TiedTask(int classes, size_t rows, uint64_t seed) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_features = 5;
  spec.num_informative = 3;
  spec.num_classes = classes;
  spec.separation = 1.0;
  spec.label_noise = 0.1;
  spec.seed = seed;
  auto data = GenerateSynthetic(spec);
  EXPECT_TRUE(data.ok());
  Dataset tied = std::move(data).value();
  for (size_t r = 0; r < tied.num_rows(); ++r) {
    for (size_t f = 0; f < tied.num_features(); ++f) {
      tied.Set(r, f, std::round(tied.At(r, f) * 2.0) / 2.0);
    }
  }
  return tied;
}

// Implementation-independent oracle for the presorted exact search: a
// classification tree fit on a bootstrap sample (duplicate rows) must
// equal, node for node and flop for flop, the tree fit on that sample
// materialized row by row. Class counts are order-free and splits are
// only scored between distinct values, so how ties are broken cannot
// matter.
TEST(TablePresortTest, BootstrapFitMatchesMaterializedSample) {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (int classes : {2, 3}) {
      const Dataset train = TiedTask(classes, 60, seed);
      Rng draw(seed * 7919);
      std::vector<size_t> sample(train.num_rows());
      for (size_t& s : sample) {
        s = static_cast<size_t>(draw.NextBounded(train.num_rows()));
      }
      Dataset materialized =
          Dataset::Like(train, "materialized", train.num_features());
      for (size_t s : sample) {
        ASSERT_TRUE(materialized.AppendRowLike(train, s, train.Row(s)).ok());
      }
      std::vector<size_t> all(sample.size());
      std::iota(all.begin(), all.end(), size_t{0});
      const TablePresort train_presort = TablePresort::Build(train).value();
      const TablePresort materialized_presort =
          TablePresort::Build(materialized).value();

      for (double fraction : {0.0, 0.5}) {
        DecisionTreeParams p;
        p.max_depth = 6;
        p.min_samples_leaf = 1;
        p.max_features_fraction = fraction;
        DecisionTree bootstrap(p);
        DecisionTree reference(p);
        Rng rng_a(seed);
        Rng rng_b(seed);
        double flops_a = 0.0;
        double flops_b = 0.0;
        ASSERT_TRUE(bootstrap
                        .FitCounted(train, &train_presort, sample, &rng_a,
                                    &flops_a)
                        .ok());
        ASSERT_TRUE(reference
                        .FitCounted(materialized, &materialized_presort, all,
                                    &rng_b, &flops_b)
                        .ok());
        EXPECT_EQ(bootstrap.num_nodes(), reference.num_nodes());
        EXPECT_EQ(flops_a, flops_b);
        ProbaMatrix proba_a;
        ProbaMatrix proba_b;
        double predict_flops = 0.0;
        bootstrap.PredictProbaCounted(train, &proba_a, &predict_flops);
        reference.PredictProbaCounted(train, &proba_b, &predict_flops);
        EXPECT_EQ(proba_a, proba_b) << "seed " << seed << ", " << classes
                                    << " classes, fraction " << fraction;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 80);
}

TEST(TablePresortTest, ExactFitRejectsMissingOrMismatchedPresort) {
  const Dataset train = EasyTask(2, 50);
  const Dataset fewer_rows = EasyTask(2, 40);
  const Dataset fewer_features = EasyTask(2, 50, 3, /*features=*/3);
  std::vector<size_t> all(train.num_rows());
  std::iota(all.begin(), all.end(), size_t{0});
  DecisionTree tree(DecisionTreeParams{});
  Rng rng(1);
  double flops = 0.0;
  EXPECT_EQ(tree.FitCounted(train, nullptr, all, &rng, &flops).code(),
            Status::Code::kInvalidArgument);
  const TablePresort short_presort =
      TablePresort::Build(fewer_rows).value();
  EXPECT_EQ(tree.FitCounted(train, &short_presort, all, &rng, &flops).code(),
            Status::Code::kInvalidArgument);
  const TablePresort narrow_presort =
      TablePresort::Build(fewer_features).value();
  EXPECT_EQ(
      tree.FitCounted(train, &narrow_presort, all, &rng, &flops).code(),
      Status::Code::kInvalidArgument);
  EXPECT_FALSE(tree.fitted());
  const TablePresort presort = TablePresort::Build(train).value();
  EXPECT_TRUE(tree.FitCounted(train, &presort, all, &rng, &flops).ok());

  // Random thresholds need no order, so no presort.
  DecisionTreeParams random;
  random.random_thresholds = true;
  DecisionTree extra(random);
  EXPECT_TRUE(extra.FitCounted(train, nullptr, all, &rng, &flops).ok());
}

TEST(TablePresortTest, NanInputRejected) {
  Dataset train = EasyTask(3, 60);
  train.Set(17, 4, NAN);
  train.Set(40, 2, NAN);
  const auto presort = TablePresort::Build(train);
  ASSERT_FALSE(presort.ok());
  EXPECT_EQ(presort.status().code(), Status::Code::kInvalidArgument);
  // The first NaN in (feature, row) order, not the first a row-major
  // read meets.
  EXPECT_NE(presort.status().message().find("feature 2 of row 40"),
            std::string::npos)
      << presort.status().message();

  VirtualClock clock;
  EnergyModel energy(MachineModel::Minimal());
  ExecutionContext ctx(&clock, &energy, 1);
  DecisionTree tree(DecisionTreeParams{});
  RandomForest forest(RandomForestParams{});
  AdaBoost ada(AdaBoostParams{});
  GradientBoosting gb(GradientBoostingParams{});
  for (Estimator* model :
       std::vector<Estimator*>{&tree, &forest, &ada, &gb}) {
    const Status st = model->Fit(train, &ctx);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << model->Name();
    EXPECT_NE(st.message().find("NaN"), std::string::npos)
        << model->Name() << ": " << st.message();
    EXPECT_FALSE(model->fitted()) << model->Name();
  }
}

// --- Pinned tree-kernel outputs ---

/// Hashes every node's feature, threshold bits, children and leaf-value
/// bits.
void AddTree(const FlatTree& tree, BitHash* hash) {
  hash->Add(static_cast<uint64_t>(tree.num_nodes()));
  for (int i = 0; i < static_cast<int>(tree.num_nodes()); ++i) {
    hash->AddInt(tree.feature(i));
    hash->Add(tree.threshold(i));
    hash->AddInt(tree.left(i));
    hash->AddInt(tree.right(i));
    for (size_t c = 0; c < tree.width(); ++c) hash->Add(tree.leaf(i)[c]);
  }
}

/// Noisy classification task; even features sit on a 0.25 grid so the
/// split scans meet tied values.
Dataset KernelTask(int classes, size_t rows, uint64_t seed) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_features = 9;
  spec.num_informative = 6;
  spec.num_classes = classes;
  spec.separation = 1.5;
  spec.label_noise = 0.1;
  spec.seed = seed;
  auto data = GenerateSynthetic(spec);
  EXPECT_TRUE(data.ok());
  Dataset task = std::move(data).value();
  for (size_t r = 0; r < task.num_rows(); ++r) {
    for (size_t f = 0; f < task.num_features(); f += 2) {
      task.Set(r, f, std::round(task.At(r, f) * 4.0) / 4.0);
    }
  }
  return task;
}

/// Fits `model` on `train` and digests the flops it charged.
void FitAndDigestFlops(Estimator* model, const Dataset& train,
                       BitHash* digest) {
  VirtualClock clock;
  EnergyModel energy(MachineModel::Minimal());
  ExecutionContext ctx(&clock, &energy, 1);
  EnergyMeter meter(&energy);
  meter.Start(clock.Now());
  ctx.SetMeter(&meter);
  ASSERT_TRUE(model->Fit(train, &ctx).ok()) << model->Name();
  const EnergyReading reading = meter.Stop(clock.Now());
  ctx.SetMeter(nullptr);
  double flops = 0.0;
  for (const auto& [path, charge] : reading.scopes) flops += charge.flops;
  EXPECT_GT(flops, 0.0) << model->Name();
  digest->Add(flops);
}

// The values were recorded before the split-scan, stripe-partition and
// RNG kernels were last rewritten: any change to a split choice, a leaf
// value, an RNG draw or the charged work moves them.
TEST(TreeKernelTest, FitsMatchPinnedDigest) {
  std::vector<std::pair<std::string, uint64_t>> got;
  const auto tree_case = [&](const std::string& name,
                             const DecisionTreeParams& p,
                             const Dataset& train) {
    BitHash d;
    DecisionTree tree(p);
    FitAndDigestFlops(&tree, train, &d);
    AddTree(tree.flat_tree(), &d);
    got.emplace_back(name, d.value());
  };
  DecisionTreeParams exact;
  exact.max_depth = 10;
  exact.min_samples_leaf = 1;
  tree_case("dt2", exact, KernelTask(2, 400, 11));
  exact.max_depth = 7;
  exact.min_samples_leaf = 3;
  tree_case("dt3", exact, KernelTask(3, 350, 12));
  exact.max_depth = 9;
  exact.min_samples_leaf = 2;
  tree_case("dt10", exact, KernelTask(10, 500, 13));

  SyntheticRegressionSpec reg_spec;
  reg_spec.num_rows = 300;
  reg_spec.num_features = 7;
  reg_spec.num_informative = 4;
  reg_spec.seed = 14;
  auto reg = GenerateSyntheticRegression(reg_spec);
  ASSERT_TRUE(reg.ok());
  tree_case("dt_reg", exact, *reg);

  {
    BitHash d;
    RandomForestParams p;
    p.num_trees = 6;
    p.max_depth = 8;
    RandomForest forest(p);
    FitAndDigestFlops(&forest, KernelTask(3, 300, 15), &d);
    for (size_t t = 0; t < forest.num_trees(); ++t) {
      AddTree(forest.tree(t).flat_tree(), &d);
    }
    got.emplace_back("rf", d.value());
  }
  {
    BitHash d;
    ExtraTreesParams p;
    p.num_trees = 6;
    p.max_depth = 8;
    ExtraTrees forest(p);
    FitAndDigestFlops(&forest, KernelTask(3, 300, 16), &d);
    for (size_t t = 0; t < forest.num_trees(); ++t) {
      AddTree(forest.tree(t).flat_tree(), &d);
    }
    got.emplace_back("et", d.value());
  }
  {
    BitHash d;
    AdaBoostParams p;
    p.num_rounds = 8;
    AdaBoost ada(p);
    FitAndDigestFlops(&ada, KernelTask(2, 300, 17), &d);
    for (int i = 0; i < ada.rounds_fitted(); ++i) {
      AddTree(ada.stage_tree(static_cast<size_t>(i)).flat_tree(), &d);
    }
    got.emplace_back("ada", d.value());
  }
  for (int classes : {2, 3}) {
    for (double subsample : {1.0, 0.7}) {
      BitHash d;
      GradientBoostingParams p;
      p.num_rounds = 6;
      p.subsample = subsample;
      GradientBoosting gb(p);
      FitAndDigestFlops(&gb, KernelTask(classes, 300, 18), &d);
      for (int r = 0; r < gb.rounds_fitted(); ++r) {
        for (int c = 0; c < classes; ++c) {
          AddTree(gb.tree(static_cast<size_t>(r), static_cast<size_t>(c)),
                  &d);
        }
      }
      got.emplace_back(StrFormat("gb%d_sub%.1f", classes, subsample),
                       d.value());
    }
  }

  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"dt2", 0xe1c077b61128279aULL},
      {"dt3", 0xe08063ab357231e3ULL},
      {"dt10", 0x90dfd8bc5696e8d4ULL},
      {"dt_reg", 0x8bcfd03cc47d4833ULL},
      {"rf", 0x9272592b17934bacULL},
      {"et", 0x6027b74f4897060aULL},
      {"ada", 0x2471142ac037252dULL},
      {"gb2_sub1.0", 0xdeb0e6d527d93ba9ULL},
      {"gb2_sub0.7", 0x0c3c4ca3e0412464ULL},
      {"gb3_sub1.0", 0xa8c02a3d99d91001ULL},
      {"gb3_sub0.7", 0xff31a6fad1e98534ULL},
  };
  ASSERT_EQ(got.size(), pinned.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, pinned[i].first);
    EXPECT_EQ(got[i].second, pinned[i].second)
        << got[i].first << ": 0x" << std::hex << got[i].second;
  }
}

}  // namespace
}  // namespace green
