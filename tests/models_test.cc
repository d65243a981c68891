#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>

#include "green/data/synthetic.h"
#include "green/ml/kernels/tree_kernels.h"
#include "green/ml/metrics.h"
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

namespace green {
namespace {

/// Easy, well-separated task every competent learner should ace.
Dataset EasyTask(int classes = 2, size_t rows = 300, uint64_t seed = 3) {
  SyntheticSpec spec;
  spec.name = "easy";
  spec.num_rows = rows;
  spec.num_features = 8;
  spec.num_informative = 8;
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
  const double before = ctx_.counter()->total_flops();
  auto estimator = c.make();
  ASSERT_TRUE(estimator->Fit(data, &ctx_).ok());
  EXPECT_GT(ctx_.counter()->total_flops(), before) << c.name;
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
  const double before_fit = ctx_.counter()->total_flops();
  ASSERT_TRUE(model.Fit(data, &ctx_).ok());
  const double fit_work = ctx_.counter()->total_flops() - before_fit;
  const double before_predict = ctx_.counter()->total_flops();
  ASSERT_TRUE(model.PredictProba(data, &ctx_).ok());
  const double predict_work =
      ctx_.counter()->total_flops() - before_predict;
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
    const double before = ctx_.counter()->total_flops();
    EXPECT_TRUE(estimator->Fit(data, &ctx_).ok());
    return ctx_.counter()->total_flops() - before;
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
  const TablePresort presort(data);
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
      const TablePresort train_presort(train);
      const TablePresort materialized_presort(materialized);

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
  const Dataset fewer_features =
      train.SelectFeatures(std::vector<size_t>{0, 1, 2});
  std::vector<size_t> all(train.num_rows());
  std::iota(all.begin(), all.end(), size_t{0});
  DecisionTree tree(DecisionTreeParams{});
  Rng rng(1);
  double flops = 0.0;
  EXPECT_EQ(tree.FitCounted(train, nullptr, all, &rng, &flops).code(),
            Status::Code::kInvalidArgument);
  const TablePresort short_presort(fewer_rows);
  EXPECT_EQ(tree.FitCounted(train, &short_presort, all, &rng, &flops).code(),
            Status::Code::kInvalidArgument);
  const TablePresort narrow_presort(fewer_features);
  EXPECT_EQ(
      tree.FitCounted(train, &narrow_presort, all, &rng, &flops).code(),
      Status::Code::kInvalidArgument);
  EXPECT_FALSE(tree.fitted());
  const TablePresort presort(train);
  EXPECT_TRUE(tree.FitCounted(train, &presort, all, &rng, &flops).ok());

  // Random thresholds need no order, so no presort.
  DecisionTreeParams random;
  random.random_thresholds = true;
  DecisionTree extra(random);
  EXPECT_TRUE(extra.FitCounted(train, nullptr, all, &rng, &flops).ok());
}

}  // namespace
}  // namespace green
