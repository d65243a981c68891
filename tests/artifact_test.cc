#include <gtest/gtest.h>

#include <numeric>

#include "bit_hash.h"
#include "flops_meter.h"
#include "green/automl/fitted_artifact.h"
#include "green/bench_util/experiment.h"
#include "green/data/synthetic.h"
#include "green/ml/metrics.h"
#include "green/ml/model_registry.h"
#include "green/table/split.h"

namespace green {
namespace {

class ArtifactTest : public ::testing::Test {
 protected:
  ArtifactTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {
    SyntheticSpec spec;
    spec.name = "task";
    spec.num_rows = 200;
    spec.num_features = 8;
    spec.num_informative = 8;
    spec.separation = 3.0;
    spec.seed = 6;
    auto data = GenerateSynthetic(spec);
    EXPECT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  std::shared_ptr<Pipeline> FitConfig(const std::string& model,
                                      uint64_t seed = 1) {
    PipelineConfig config;
    config.model = model;
    config.seed = seed;
    auto pipeline = BuildPipeline(config);
    EXPECT_TRUE(pipeline.ok());
    EXPECT_TRUE(pipeline->Fit(data_, &ctx_).ok());
    return std::make_shared<Pipeline>(std::move(pipeline).value());
  }

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
  Dataset data_;
};

TEST_F(ArtifactTest, EmptyArtifactRejectsPredict) {
  FittedArtifact artifact;
  EXPECT_TRUE(artifact.empty());
  EXPECT_FALSE(artifact.PredictProba(data_, &ctx_).ok());
}

TEST_F(ArtifactTest, SingleMatchesUnderlyingPipeline) {
  auto pipeline = FitConfig("decision_tree");
  const FittedArtifact artifact = FittedArtifact::Single(pipeline);
  EXPECT_EQ(artifact.NumPipelines(), 1u);
  EXPECT_FALSE(artifact.stacked());
  auto artifact_preds = artifact.Predict(data_, &ctx_);
  auto pipeline_preds = pipeline->Predict(data_, &ctx_);
  ASSERT_TRUE(artifact_preds.ok() && pipeline_preds.ok());
  EXPECT_EQ(artifact_preds.value(), pipeline_preds.value());
}

TEST_F(ArtifactTest, WeightedBlendIsConvex) {
  FittedArtifact::Member a;
  a.folds.push_back(FitConfig("naive_bayes"));
  a.weight = 0.5;
  FittedArtifact::Member b;
  b.folds.push_back(FitConfig("logistic_regression"));
  b.weight = 0.5;
  const FittedArtifact artifact =
      FittedArtifact::Weighted({std::move(a), std::move(b)});
  auto proba = artifact.PredictProba(data_, &ctx_);
  ASSERT_TRUE(proba.ok());
  for (const auto& row : *proba) {
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST_F(ArtifactTest, ZeroWeightMemberIgnored) {
  FittedArtifact::Member a;
  a.folds.push_back(FitConfig("naive_bayes", 1));
  a.weight = 1.0;
  FittedArtifact::Member b;
  b.folds.push_back(FitConfig("decision_tree", 2));
  b.weight = 0.0;
  const FittedArtifact blended =
      FittedArtifact::Weighted({std::move(a), std::move(b)});
  FittedArtifact::Member only;
  only.folds.push_back(FitConfig("naive_bayes", 1));
  const FittedArtifact single =
      FittedArtifact::Weighted({std::move(only)});
  auto pa = blended.PredictProba(data_, &ctx_);
  auto pb = single.PredictProba(data_, &ctx_);
  ASSERT_TRUE(pa.ok() && pb.ok());
  for (size_t i = 0; i < pa->size(); ++i) {
    EXPECT_NEAR((*pa)[i][0], (*pb)[i][0], 1e-12);
  }
}

TEST_F(ArtifactTest, FoldAveragingUsesAllFolds) {
  FittedArtifact::Member member;
  member.folds.push_back(FitConfig("decision_tree", 1));
  member.folds.push_back(FitConfig("decision_tree", 2));
  member.folds.push_back(FitConfig("decision_tree", 3));
  const FittedArtifact artifact =
      FittedArtifact::Weighted({std::move(member)});
  EXPECT_EQ(artifact.NumPipelines(), 3u);
  auto proba = artifact.PredictProba(data_, &ctx_);
  ASSERT_TRUE(proba.ok());
}

TEST_F(ArtifactTest, StackedPredictsAndChargesMore) {
  std::vector<FittedArtifact::Member> base;
  for (const char* m : {"naive_bayes", "decision_tree"}) {
    FittedArtifact::Member member;
    member.folds.push_back(FitConfig(m));
    base.push_back(std::move(member));
  }
  // Meta layer trained on augmented features (raw + 2 members x 2
  // classes).
  Dataset augmented(data_.name(), data_.num_features() + 4,
                    data_.num_classes());
  {
    std::vector<double> row(augmented.num_features(), 0.25);
    for (size_t r = 0; r < data_.num_rows(); ++r) {
      for (size_t j = 0; j < data_.num_features(); ++j) {
        row[j] = data_.At(r, j);
      }
      ASSERT_TRUE(augmented.AppendRow(row, data_.Label(r)).ok());
    }
  }
  PipelineConfig meta_config;
  meta_config.model = "logistic_regression";
  auto meta_pipeline = BuildPipeline(meta_config);
  ASSERT_TRUE(meta_pipeline.ok());
  ASSERT_TRUE(meta_pipeline->Fit(augmented, &ctx_).ok());
  FittedArtifact::Member meta;
  meta.folds.push_back(
      std::make_shared<Pipeline>(std::move(meta_pipeline).value()));

  const FittedArtifact stacked =
      FittedArtifact::Stacked(std::move(base), {std::move(meta)},
                              data_.schema());
  EXPECT_TRUE(stacked.stacked());
  EXPECT_EQ(stacked.NumPipelines(), 3u);

  FlopsMeter metered(&ctx_);
  auto proba = stacked.PredictProba(data_, &ctx_);
  ASSERT_TRUE(proba.ok());
  const double stack_work = metered.flops();

  const FittedArtifact single = FittedArtifact::Single(
      FitConfig("naive_bayes"));
  const double before_single = metered.flops();
  ASSERT_TRUE(single.PredictProba(data_, &ctx_).ok());
  const double single_work = metered.flops() - before_single;
  // Observation O1 at artifact granularity: stacking costs strictly more
  // per prediction than a single model.
  EXPECT_GT(stack_work, 2.0 * single_work);
}

TEST_F(ArtifactTest, InferenceFlopsSumOverMembers) {
  auto p1 = FitConfig("decision_tree");
  auto p2 = FitConfig("random_forest");
  FittedArtifact::Member m1;
  m1.folds.push_back(p1);
  FittedArtifact::Member m2;
  m2.folds.push_back(p2);
  const FittedArtifact ensemble =
      FittedArtifact::Weighted({std::move(m1), std::move(m2)});
  const double sum = p1->InferenceFlopsPerRow(data_.num_features()) +
                     p2->InferenceFlopsPerRow(data_.num_features());
  EXPECT_NEAR(ensemble.InferenceFlopsPerRow(data_.num_features()), sum,
              1e-9);
}

TEST_F(ArtifactTest, DescribeMentionsMembers) {
  const FittedArtifact artifact =
      FittedArtifact::Single(FitConfig("naive_bayes"));
  EXPECT_NE(artifact.Describe().find("naive_bayes"), std::string::npos);
}

// --- Small-batch predict on the serving deployment ---

void AddProba(const ProbaMatrix& proba, BitHash* hash) {
  for (const auto& row : proba) {
    for (double p : row) hash->Add(p);
  }
}

// Batches of 1, 2 and 8 rows predict exactly the rows of one full-table
// predict, and a 1-row-batch loop charges exactly what it did before every
// pipeline's transform chain became one row pass (the digest was recorded
// then: any change to a probability, a Joule or a scope row moves it).
TEST_F(ArtifactTest, SmallBatchPredictMatchesFullTable) {
  const ExperimentConfig config;
  const EnergyModel model(config.machine);
  VirtualClock fit_clock;
  ExecutionContext fit_ctx(&fit_clock, &model, config.cores);
  auto serve = FitServeDeployment(config, &fit_ctx);
  ASSERT_TRUE(serve.ok()) << serve.status().ToString();
  const FittedArtifact& artifact = serve->artifact;
  const Dataset& test = serve->data.test;
  ASSERT_TRUE(artifact.stacked());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  auto full = artifact.PredictProba(test, &ctx);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), test.num_rows());

  for (size_t batch : {1, 2, 8}) {
    for (size_t start = 0; start < test.num_rows(); start += batch) {
      std::vector<size_t> rows(std::min(batch, test.num_rows() - start));
      std::iota(rows.begin(), rows.end(), start);
      auto proba = artifact.PredictProba(test.Subset(rows), &ctx);
      ASSERT_TRUE(proba.ok());
      ASSERT_EQ(proba->size(), rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        BitHash got;
        BitHash want;
        AddProba({(*proba)[i]}, &got);
        AddProba({(*full)[rows[i]]}, &want);
        ASSERT_EQ(got.value(), want.value())
            << "batch " << batch << ", row " << rows[i];
      }
    }
  }

  VirtualClock loop_clock;
  ExecutionContext loop_ctx(&loop_clock, &model, 1);
  EnergyMeter meter(&model);
  meter.Start(loop_clock.Now());
  loop_ctx.SetMeter(&meter);
  BitHash hash;
  for (size_t r = 0; r < test.num_rows(); ++r) {
    auto proba = artifact.PredictProba(test.Subset({r}), &loop_ctx);
    ASSERT_TRUE(proba.ok());
    AddProba(*proba, &hash);
  }
  const EnergyReading reading = meter.Stop(loop_clock.Now());
  loop_ctx.SetMeter(nullptr);
  hash.Add(reading.seconds);
  hash.Add(reading.joules());
  for (const auto& [path, charge] : reading.scopes) {
    hash.Add(path);
    hash.Add(charge.seconds);
    hash.Add(charge.joules);
    hash.Add(charge.flops);
    hash.Add(charge.bytes);
    hash.Add(charge.charges);
  }
  EXPECT_EQ(hash.value(), 0xa58b4bb10dc9df5bULL)
      << "0x" << std::hex << hash.value();
}

}  // namespace
}  // namespace green
