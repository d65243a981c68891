#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "green/data/meta_corpus.h"
#include "green/metaopt/automl_tuner.h"
#include "green/metaopt/representative.h"
#include "green/metaopt/tuned_config_store.h"

namespace green {
namespace {

std::vector<Dataset> SmallCorpus(size_t n) {
  MetaCorpusOptions options;
  options.num_datasets = n;
  SimulationProfile profile = SimulationProfile::Fast();
  profile.max_rows = 240;  // Keep the tuner test fast.
  auto corpus = GenerateMetaCorpus(options, profile);
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).value();
}

// --- representative selection ---

TEST(RepresentativeTest, SelectsRequestedCount) {
  const auto corpus = SmallCorpus(20);
  auto picks = SelectRepresentativeDatasets(corpus, 5, 1);
  ASSERT_TRUE(picks.ok());
  EXPECT_LE(picks->size(), 5u);
  EXPECT_GE(picks->size(), 2u);
  for (size_t idx : *picks) EXPECT_LT(idx, corpus.size());
}

TEST(RepresentativeTest, NoDuplicates) {
  const auto corpus = SmallCorpus(20);
  auto picks = SelectRepresentativeDatasets(corpus, 8, 2);
  ASSERT_TRUE(picks.ok());
  std::set<size_t> unique(picks->begin(), picks->end());
  EXPECT_EQ(unique.size(), picks->size());
}

TEST(RepresentativeTest, DeterministicForSeed) {
  const auto corpus = SmallCorpus(16);
  auto a = SelectRepresentativeDatasets(corpus, 4, 7);
  auto b = SelectRepresentativeDatasets(corpus, 4, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(RepresentativeTest, RejectsBadInput) {
  EXPECT_FALSE(SelectRepresentativeDatasets({}, 5, 1).ok());
  EXPECT_FALSE(
      SelectRepresentativeDatasets(SmallCorpus(3), 0, 1).ok());
}

// --- trial decoding ---

TEST(TunerDecodeTest, DimensionStable) {
  EXPECT_EQ(AutoMlTuner::TrialDimension(), 14u);
}

TEST(TunerDecodeTest, AllSwitchesOff) {
  // No model switch set: falls back to the decision-tree core.
  std::vector<double> unit(AutoMlTuner::TrialDimension(), 0.0);
  const CamlParams params = AutoMlTuner::DecodeTrial(unit);
  ASSERT_EQ(params.models.size(), 1u);
  EXPECT_EQ(params.models[0], "decision_tree");
  EXPECT_FALSE(params.refit);
  EXPECT_FALSE(params.random_validation_split);
  EXPECT_FALSE(params.incremental_training);
  EXPECT_NEAR(params.holdout_fraction, 0.15, 1e-9);
  EXPECT_NEAR(params.sampling_fraction, 0.15, 1e-9);
  EXPECT_NEAR(params.evaluation_fraction, 0.03, 1e-6);
}

TEST(TunerDecodeTest, AllSwitchesOn) {
  std::vector<double> unit(AutoMlTuner::TrialDimension(), 1.0);
  const CamlParams params = AutoMlTuner::DecodeTrial(unit);
  EXPECT_EQ(params.models.size(), 8u);
  EXPECT_TRUE(params.refit);
  EXPECT_TRUE(params.random_validation_split);
  EXPECT_TRUE(params.incremental_training);
  EXPECT_NEAR(params.holdout_fraction, 0.5, 1e-9);
  EXPECT_NEAR(params.sampling_fraction, 1.0, 1e-9);
  EXPECT_NEAR(params.evaluation_fraction, 0.35, 1e-6);
}

TEST(TunerDecodeTest, BoundsRespectedForRandomPoints) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> unit(AutoMlTuner::TrialDimension());
    for (double& u : unit) u = rng.NextDouble();
    const CamlParams p = AutoMlTuner::DecodeTrial(unit);
    EXPECT_GE(p.holdout_fraction, 0.15);
    EXPECT_LE(p.holdout_fraction, 0.5);
    EXPECT_GE(p.evaluation_fraction, 0.03 - 1e-9);
    EXPECT_LE(p.evaluation_fraction, 0.35 + 1e-9);
    EXPECT_GE(p.sampling_fraction, 0.15);
    EXPECT_LE(p.sampling_fraction, 1.0);
    EXPECT_GE(p.models.size(), 1u);
  }
}

// --- tuner end-to-end (small) ---

TEST(TunerTest, TunesAndMetersDevelopment) {
  const auto corpus = SmallCorpus(8);
  AutoMlTunerOptions options;
  options.search_time_seconds = 0.5;
  options.bo_iterations = 6;
  options.top_k_datasets = 3;
  options.repetitions = 1;
  options.seed = 5;
  AutoMlTuner tuner(options);

  VirtualClock clock;
  EnergyModel model(MachineModel::Minimal());
  ExecutionContext ctx(&clock, &model, 1);
  auto result = tuner.Tune(corpus, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trials_run, 6);
  EXPECT_GE(result->trials_pruned, 0);
  EXPECT_LE(result->trials_pruned, result->trials_run);
  EXPECT_GT(result->development.kwh(), 0.0);
  EXPECT_GT(result->development_seconds, 0.0);
  EXPECT_GE(result->best_objective, -3.0);
  EXPECT_FALSE(result->best_params.models.empty());
  EXPECT_FALSE(result->representative_indices.empty());
}

TEST(TunerTest, RejectsEmptyCorpus) {
  AutoMlTuner tuner(AutoMlTunerOptions{});
  VirtualClock clock;
  EnergyModel model(MachineModel::Minimal());
  ExecutionContext ctx(&clock, &model, 1);
  EXPECT_FALSE(tuner.Tune({}, &ctx).ok());
}

// --- tuned config store ---

TEST(TunedStoreTest, EmptyIsNotFound) {
  TunedConfigStore store;
  EXPECT_FALSE(store.Get(30.0).ok());
}

TEST(TunedStoreTest, NearestBudgetLookup) {
  TunedConfigStore store;
  CamlParams fast;
  fast.models = {"naive_bayes"};
  CamlParams slow;
  slow.models = {"mlp"};
  store.Put(10.0, fast);
  store.Put(300.0, slow);
  EXPECT_EQ(store.Get(12.0).value().models[0], "naive_bayes");
  EXPECT_EQ(store.Get(200.0).value().models[0], "mlp");
  EXPECT_EQ(store.size(), 2u);
}

TEST(TunedStoreTest, PaperDefaultsCoverAllBudgets) {
  const TunedConfigStore store = TunedConfigStore::PaperDefaults();
  EXPECT_EQ(store.size(), 4u);
  for (double budget : {10.0, 30.0, 60.0, 300.0}) {
    auto params = store.Get(budget);
    ASSERT_TRUE(params.ok());
    EXPECT_FALSE(params->models.empty());
    // Table 5 regularities: incremental training and random validation
    // splitting are always selected; sampling is always enabled.
    EXPECT_TRUE(params->incremental_training);
    EXPECT_TRUE(params->random_validation_split);
    EXPECT_GT(params->sampling_fraction, 0.0);
  }
  // The search space grows with the budget.
  EXPECT_LT(store.Get(10.0)->models.size(),
            store.Get(300.0)->models.size() + 1);
  // Decision trees are in every tuned space.
  for (double budget : {10.0, 30.0, 60.0, 300.0}) {
    const std::vector<std::string> models = store.Get(budget)->models;
    EXPECT_NE(std::find(models.begin(), models.end(), "decision_tree"),
              models.end());
  }
  // Refit at 1 min but not at 5 min (Table 5).
  EXPECT_TRUE(store.Get(60.0)->refit);
  EXPECT_FALSE(store.Get(300.0)->refit);
}

}  // namespace
}  // namespace green
