#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "green/automl/askl_system.h"
#include "green/automl/autopt_system.h"
#include "green/automl/caml_system.h"
#include "green/automl/flaml_system.h"
#include "green/automl/gluon_system.h"
#include "green/automl/guideline.h"
#include "green/automl/tabpfn_system.h"
#include "green/automl/tpot_system.h"
#include "green/bench_util/experiment.h"
#include "green/common/cancel.h"
#include "green/data/meta_corpus.h"
#include "green/data/synthetic.h"
#include "green/ml/metrics.h"
#include "green/table/split.h"

namespace green {
namespace {

class SystemsTest : public ::testing::Test {
 protected:
  SystemsTest()
      : energy_model_(MachineModel::Minimal()),
        ctx_(&clock_, &energy_model_, 1) {
    SyntheticSpec spec;
    spec.name = "task";
    spec.num_rows = 260;
    spec.num_features = 10;
    spec.num_informative = 8;
    spec.num_categorical = 2;
    spec.separation = 2.6;
    spec.label_noise = 0.03;
    spec.seed = 8;
    auto data = GenerateSynthetic(spec);
    EXPECT_TRUE(data.ok());
    Rng rng(8);
    TrainTestData split =
        Materialize(*data, StratifiedSplit(*data, 0.66, &rng));
    train_ = std::move(split.train);
    test_ = std::move(split.test);
  }

  double TestAccuracy(const FittedArtifact& artifact) {
    auto preds = artifact.Predict(test_, &ctx_);
    EXPECT_TRUE(preds.ok());
    return BalancedAccuracy(test_.labels(), preds.value(),
                            test_.num_classes());
  }

  AutoMlOptions Budget(double seconds) {
    AutoMlOptions options;
    options.search_budget_seconds = seconds;
    options.seed = 42;
    return options;
  }

  VirtualClock clock_;
  EnergyModel energy_model_;
  ExecutionContext ctx_;
  Dataset train_;
  Dataset test_;
};

// --- CAML ---

TEST_F(SystemsTest, CamlLearnsAndAdheresStrictly) {
  CamlSystem caml;
  auto run = caml.Fit(train_, Budget(3.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(TestAccuracy(run->artifact), 0.7);
  EXPECT_EQ(run->artifact.NumPipelines(), 1u);  // Single pipeline.
  EXPECT_GT(run->pipelines_evaluated, 0);
  EXPECT_GT(run->execution.kwh(), 0.0);
  // Strict policy: small tolerance only (refit may run within estimate).
  EXPECT_LE(run->actual_seconds, 3.0 * 1.25);
}

TEST_F(SystemsTest, CamlHonoursInferenceConstraint) {
  CamlSystem caml;
  AutoMlOptions unconstrained = Budget(3.0);
  auto free_run = caml.Fit(train_, unconstrained, &ctx_);
  ASSERT_TRUE(free_run.ok());

  AutoMlOptions constrained = Budget(3.0);
  // Tight per-row budget in virtual seconds.
  constrained.max_inference_seconds_per_row = 2e-4;
  auto tight_run = caml.Fit(train_, constrained, &ctx_);
  ASSERT_TRUE(tight_run.ok());
  EXPECT_LE(
      tight_run->artifact.InferenceFlopsPerRow(train_.num_features()),
      free_run->artifact.InferenceFlopsPerRow(train_.num_features()) +
          1e-9);
}

TEST_F(SystemsTest, CamlSamplingParameterShrinksTraining) {
  CamlParams params;
  params.sampling_fraction = 0.3;
  params.refit = false;
  CamlSystem caml(params, "caml_sampled");
  auto run = caml.Fit(train_, Budget(2.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(caml.Name(), "caml_sampled");
  EXPECT_GT(run->pipelines_evaluated, 0);
}

TEST_F(SystemsTest, CamlRestrictedSpaceOnlyUsesAllowedModels) {
  CamlParams params;
  params.models = {"naive_bayes"};
  params.refit = false;
  params.incremental_training = false;
  CamlSystem caml(params, "caml_nb");
  auto run = caml.Fit(train_, Budget(2.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_NE(run->artifact.Describe().find("naive_bayes"),
            std::string::npos);
}

TEST_F(SystemsTest, CamlRejectsTinyDataset) {
  Dataset tiny("tiny", 2, 2);
  ASSERT_TRUE(tiny.AppendRow({0.0, 0.0}, 0).ok());
  CamlSystem caml;
  EXPECT_FALSE(caml.Fit(tiny, Budget(1.0), &ctx_).ok());
}

// --- FLAML ---

TEST_F(SystemsTest, FlamlFindsCheapModel) {
  FlamlSystem flaml;
  auto run = flaml.Fit(train_, Budget(3.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(TestAccuracy(run->artifact), 0.7);
  EXPECT_EQ(run->artifact.NumPipelines(), 1u);
  EXPECT_GT(run->pipelines_evaluated, 3);
}

TEST_F(SystemsTest, FlamlOverrunIsBounded) {
  FlamlSystem flaml;
  auto run = flaml.Fit(train_, Budget(2.0), &ctx_);
  ASSERT_TRUE(run.ok());
  // Finish-last-evaluation: may overrun, but only by one evaluation.
  EXPECT_GE(run->actual_seconds, 2.0);
  EXPECT_LE(run->actual_seconds, 2.0 * 2.5);
}

TEST_F(SystemsTest, FlamlInferenceCheaperThanEnsembles) {
  FlamlSystem flaml;
  GluonSystem gluon;
  auto flaml_run = flaml.Fit(train_, Budget(3.0), &ctx_);
  auto gluon_run = gluon.Fit(train_, Budget(3.0), &ctx_);
  ASSERT_TRUE(flaml_run.ok() && gluon_run.ok());
  EXPECT_LT(
      flaml_run->artifact.InferenceFlopsPerRow(train_.num_features()),
      gluon_run->artifact.InferenceFlopsPerRow(train_.num_features()));
}

// --- TabPFN ---

TEST_F(SystemsTest, TabPfnNeedsNoSearch) {
  TabPfnSystem tabpfn;
  auto run = tabpfn.Fit(train_, Budget(300.0), &ctx_);
  ASSERT_TRUE(run.ok());
  // Execution is a fixed sub-second load regardless of the budget.
  EXPECT_LT(run->actual_seconds, 1.0);
  EXPECT_EQ(run->pipelines_evaluated, 1);
  EXPECT_GT(TestAccuracy(run->artifact), 0.6);
}

TEST_F(SystemsTest, TabPfnExecutionConstantAcrossBudgets) {
  TabPfnSystem tabpfn;
  auto run_a = tabpfn.Fit(train_, Budget(10.0), &ctx_);
  auto run_b = tabpfn.Fit(train_, Budget(300.0), &ctx_);
  ASSERT_TRUE(run_a.ok() && run_b.ok());
  EXPECT_NEAR(run_a->actual_seconds, run_b->actual_seconds, 1e-9);
}

TEST_F(SystemsTest, TabPfnInferenceDominatesItsExecution) {
  TabPfnSystem tabpfn;
  auto run = tabpfn.Fit(train_, Budget(10.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EnergyMeter meter(&energy_model_);
  meter.Start(clock_.Now());
  ctx_.SetMeter(&meter);
  ASSERT_TRUE(run->artifact.Predict(test_, &ctx_).ok());
  const EnergyReading inference = meter.Stop(clock_.Now());
  ctx_.SetMeter(nullptr);
  EXPECT_GT(inference.kwh(), run->execution.kwh());
}

// --- AutoGluon ---

TEST_F(SystemsTest, GluonBuildsStackedEnsemble) {
  GluonSystem gluon;
  auto run = gluon.Fit(train_, Budget(20.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->artifact.stacked());
  EXPECT_GT(run->artifact.NumPipelines(), 4u);
  EXPECT_GT(TestAccuracy(run->artifact), 0.75);
}

TEST_F(SystemsTest, GluonRefitShrinksInference) {
  GluonSystem normal;
  GluonParams refit_params;
  refit_params.refit_for_inference = true;
  GluonSystem refit(refit_params);
  auto run_normal = normal.Fit(train_, Budget(20.0), &ctx_);
  auto run_refit = refit.Fit(train_, Budget(20.0), &ctx_);
  ASSERT_TRUE(run_normal.ok() && run_refit.ok());
  EXPECT_LT(run_refit->artifact.NumPipelines(),
            run_normal->artifact.NumPipelines());
  EXPECT_EQ(refit.Name(), "autogluon_refit");
}

TEST_F(SystemsTest, GluonOvershootsSmallBudgets) {
  GluonSystem gluon;
  auto run = gluon.Fit(train_, Budget(0.5), &ctx_);
  ASSERT_TRUE(run.ok());
  // Estimated-plan policy: the minimum ensemble runs to completion even
  // when the budget cannot hold it (Table 7's small-budget overshoot).
  EXPECT_GT(run->actual_seconds, 0.5);
}

// --- AutoSklearn ---

TEST_F(SystemsTest, Askl1BuildsWeightedEnsemble) {
  AsklParams params;
  AsklSystem askl(params, nullptr);
  auto run = askl.Fit(train_, Budget(6.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(TestAccuracy(run->artifact), 0.7);
  EXPECT_FALSE(run->artifact.stacked());
  EXPECT_EQ(askl.Name(), "autosklearn1");
  EXPECT_EQ(askl.MinBudgetSeconds(), 30.0);
}

TEST_F(SystemsTest, AsklOverrunsForEnsembling) {
  AsklParams params;
  AsklSystem askl(params, nullptr);
  auto run = askl.Fit(train_, Budget(4.0), &ctx_);
  ASSERT_TRUE(run.ok());
  // Search may start right before the deadline, and Caruana weighting is
  // not budget-counted: actual > configured.
  EXPECT_GT(run->actual_seconds, 4.0);
}

TEST_F(SystemsTest, Askl2WarmStartUsesMetaStore) {
  // Build a small meta store, then check ASKL2 runs and names itself.
  MetaCorpusOptions corpus_options;
  corpus_options.num_datasets = 4;
  auto corpus =
      GenerateMetaCorpus(corpus_options, SimulationProfile::Fast());
  ASSERT_TRUE(corpus.ok());
  auto store = AsklMetaStore::BuildFromCorpus(*corpus, 3, 1, &ctx_);
  ASSERT_TRUE(store.ok());
  EXPECT_GT(store->size(), 0u);

  AsklParams params;
  params.warm_start = true;
  AsklSystem askl2(params, &store.value());
  EXPECT_EQ(askl2.Name(), "autosklearn2");
  auto run = askl2.Fit(train_, Budget(6.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(TestAccuracy(run->artifact), 0.65);
}

TEST_F(SystemsTest, MetaStoreNearestNeighbourLookup) {
  AsklMetaStore store;
  AsklMetaStore::Entry small;
  small.meta.log_rows = 2.0;
  PipelineConfig nb;
  nb.model = "naive_bayes";
  small.top_configs = {nb};
  AsklMetaStore::Entry big;
  big.meta.log_rows = 6.0;
  PipelineConfig rf;
  rf.model = "random_forest";
  big.top_configs = {rf};
  store.AddEntry(small);
  store.AddEntry(big);

  MetaFeatures query;
  query.log_rows = 5.5;
  const auto configs = store.WarmStartConfigs(query, 5);
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].model, "random_forest");
}

// --- TPOT ---

TEST_F(SystemsTest, TpotEvolvesPipelines) {
  TpotSystem tpot;
  EXPECT_EQ(tpot.MinBudgetSeconds(), 60.0);
  auto run = tpot.Fit(train_, Budget(8.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(TestAccuracy(run->artifact), 0.65);
  EXPECT_EQ(run->artifact.NumPipelines(), 1u);
  EXPECT_GT(run->pipelines_evaluated, 0);
}

TEST_F(SystemsTest, TpotCvMultipliesEvaluationCost) {
  // Per distinct pipeline, TPOT trains cv_folds models; with equal
  // budgets it evaluates fewer DISTINCT pipelines than CAML.
  TpotSystem tpot;
  CamlSystem caml;
  auto tpot_run = tpot.Fit(train_, Budget(6.0), &ctx_);
  auto caml_run = caml.Fit(train_, Budget(6.0), &ctx_);
  ASSERT_TRUE(tpot_run.ok() && caml_run.ok());
  EXPECT_LT(tpot_run->pipelines_evaluated,
            caml_run->pipelines_evaluated + 40);
}

TEST_F(SystemsTest, TpotRejectsTooFewRows) {
  Dataset tiny("tiny", 2, 2);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(tiny.AppendRow({0.0, 1.0}, i % 2).ok());
  }
  TpotSystem tpot;
  EXPECT_FALSE(tpot.Fit(tiny, Budget(60.0), &ctx_).ok());
}

// --- autopt (joint MLP architecture + hyperparameter ladder) ---

TEST_F(SystemsTest, AutoPtFindsCompetentMlp) {
  AutoPtSystem autopt;
  auto run = autopt.Fit(train_, Budget(8.0), &ctx_);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->pipelines_evaluated, 1);
  EXPECT_GT(TestAccuracy(run->artifact), 0.7);
  // Multi-fidelity: the ladder proposes more configs than survive to the
  // top rung, and the winner's score is a real holdout number.
  EXPECT_GT(run->best_validation_score, 0.5);
}

TEST_F(SystemsTest, AutoPtChargesUnderItsOwnScopeSubtree) {
  AutoPtSystem autopt;
  auto run = autopt.Fit(train_, Budget(6.0), &ctx_);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->execution.scopes.empty());
  bool has_search_subtree = false;
  for (const auto& [path, charge] : run->execution.scopes) {
    EXPECT_EQ(path.rfind("autopt", 0), 0u) << path;
    if (path.rfind("autopt/search", 0) == 0) has_search_subtree = true;
  }
  EXPECT_TRUE(has_search_subtree);
}

TEST_F(SystemsTest, AutoPtRespectsBudgetWithFinishLastEvaluation) {
  AutoPtSystem autopt;
  EXPECT_EQ(autopt.budget_policy(),
            BudgetPolicyKind::kFinishLastEvaluation);
  const double start = ctx_.Now();
  auto run = autopt.Fit(train_, Budget(5.0), &ctx_);
  ASSERT_TRUE(run.ok());
  // May finish the in-flight evaluation but not arbitrarily overrun.
  EXPECT_LT(ctx_.Now() - start, 5.0 * 3.0);
}

TEST_F(SystemsTest, AutoPtDeterministicInSeed) {
  AutoPtSystem a, b;
  VirtualClock clock_a, clock_b;
  ExecutionContext ctx_a(&clock_a, &energy_model_, 1);
  ExecutionContext ctx_b(&clock_b, &energy_model_, 1);
  auto run_a = a.Fit(train_, Budget(6.0), &ctx_a);
  auto run_b = b.Fit(train_, Budget(6.0), &ctx_b);
  ASSERT_TRUE(run_a.ok() && run_b.ok());
  EXPECT_EQ(run_a->best_validation_score, run_b->best_validation_score);
  EXPECT_EQ(run_a->pipelines_evaluated, run_b->pipelines_evaluated);
  EXPECT_EQ(clock_a.Now(), clock_b.Now());
}

// --- regression across systems ---

class RegressionSystemsTest : public ::testing::Test {
 protected:
  RegressionSystemsTest()
      : energy_model_(MachineModel::Minimal()),
        ctx_(&clock_, &energy_model_, 1) {
    SyntheticRegressionSpec spec;
    spec.name = "reg_task";
    spec.num_rows = 240;
    spec.num_features = 8;
    spec.num_informative = 6;
    spec.num_categorical = 2;
    spec.noise = 0.3;
    spec.seed = 9;
    Dataset data = GenerateSyntheticRegression(spec).value();
    Rng rng(9);
    TrainTestData split = Materialize(data, SplitForTask(data, 0.7, &rng));
    train_ = std::move(split.train);
    test_ = std::move(split.test);
  }

  AutoMlOptions Budget(double seconds) {
    AutoMlOptions options;
    options.search_budget_seconds = seconds;
    options.seed = 42;
    return options;
  }

  VirtualClock clock_;
  EnergyModel energy_model_;
  ExecutionContext ctx_;
  Dataset train_ = Dataset::Regression("empty", 1);
  Dataset test_ = Dataset::Regression("empty", 1);
};

TEST_F(RegressionSystemsTest, SystemsBeatTargetMeanBaseline) {
  CamlSystem caml;
  FlamlSystem flaml;
  AutoPtSystem autopt;
  for (AutoMlSystem* system :
       std::initializer_list<AutoMlSystem*>{&caml, &flaml, &autopt}) {
    SCOPED_TRACE(system->Name());
    ASSERT_TRUE(system->SupportsTask(TaskType::kRegression));
    auto run = system->Fit(train_, Budget(6.0), &ctx_);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto pred = run->artifact.PredictProba(test_, &ctx_);
    ASSERT_TRUE(pred.ok());
    ASSERT_EQ((*pred)[0].size(), 1u);
    std::vector<double> flat;
    flat.reserve(pred->size());
    for (const auto& row : *pred) flat.push_back(row[0]);
    EXPECT_GT(R2(test_.targets(), flat), 0.0);
    // The recorded validation score is the negated-RMSE adapter value.
    EXPECT_LT(run->best_validation_score, 0.0);
    EXPECT_GT(MetricFromScore(TaskType::kRegression,
                              run->best_validation_score),
              0.0);
  }
}

TEST_F(RegressionSystemsTest, HardLabelPredictionIsATypedError) {
  CamlSystem caml;
  auto run = caml.Fit(train_, Budget(4.0), &ctx_);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->artifact.task(), TaskType::kRegression);
  auto preds = run->artifact.Predict(test_, &ctx_);
  ASSERT_FALSE(preds.ok());
  EXPECT_EQ(preds.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(RegressionSystemsTest, TabPfnDeclinesRegression) {
  TabPfnSystem tabpfn;
  EXPECT_FALSE(tabpfn.SupportsTask(TaskType::kRegression));
  const auto run = tabpfn.Fit(train_, Budget(4.0), &ctx_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), Status::Code::kUnimplemented);
}

// --- budget policies across systems ---

TEST_F(SystemsTest, PolicyKindsMatchTable7) {
  EXPECT_EQ(CamlSystem().budget_policy(), BudgetPolicyKind::kStrict);
  EXPECT_EQ(FlamlSystem().budget_policy(),
            BudgetPolicyKind::kFinishLastEvaluation);
  EXPECT_EQ(GluonSystem().budget_policy(),
            BudgetPolicyKind::kEstimatedPlan);
  EXPECT_EQ(TabPfnSystem().budget_policy(), BudgetPolicyKind::kNoBudget);
  EXPECT_EQ(TpotSystem().budget_policy(),
            BudgetPolicyKind::kFinishLastEvaluation);
  AsklParams params;
  EXPECT_EQ(AsklSystem(params, nullptr).budget_policy(),
            BudgetPolicyKind::kEnsemblingNotCounted);
}

// --- the Fit frame, for every system ---

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Every system the harness can run, built the way RunOne builds it.
std::vector<std::unique_ptr<AutoMlSystem>> AllSystems(
    ExperimentRunner* runner) {
  std::vector<std::unique_ptr<AutoMlSystem>> systems;
  for (const std::string& name : AllSystemNames()) {
    auto system = runner->MakeSystem(name, 60.0);
    EXPECT_TRUE(system.ok()) << name;
    if (system.ok()) systems.push_back(std::move(system).value());
  }
  return systems;
}

ExperimentConfig OneDatasetConfig() {
  ExperimentConfig config;
  config.dataset_limit = 1;
  return config;
}

TEST_F(SystemsTest, FrameRejectsCancelledContextBeforeMetering) {
  CancelToken cancelled;
  cancelled.Cancel();
  ctx_.SetCancelToken(&cancelled);
  EnergyMeter caller_meter(&energy_model_);
  caller_meter.Start(clock_.Now());
  ctx_.SetMeter(&caller_meter);
  const double start = clock_.Now();
  ExperimentRunner runner(OneDatasetConfig());
  for (const auto& system : AllSystems(&runner)) {
    SCOPED_TRACE(system->Name());
    const auto run = system->Fit(train_, Budget(2.0), &ctx_);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), Status::Code::kDeadlineExceeded);
    EXPECT_EQ(ctx_.meter(), &caller_meter);
    EXPECT_EQ(ctx_.deadline(), kNoDeadline);
  }
  EXPECT_EQ(clock_.Now(), start);
  EXPECT_EQ(caller_meter.dynamic_joules(), 0.0);
  EXPECT_TRUE(caller_meter.Stop(clock_.Now()).scopes.empty());
  ctx_.SetMeter(nullptr);
}

TEST_F(SystemsTest, FrameClearsDeadlineAndScopesUnderName) {
  ExperimentRunner runner(OneDatasetConfig());
  for (const auto& system : AllSystems(&runner)) {
    const std::string name = system->Name();
    SCOPED_TRACE(name);
    const auto run = system->Fit(train_, Budget(4.0), &ctx_);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(ctx_.deadline(), kNoDeadline);
    EXPECT_EQ(run->configured_budget_seconds, 4.0);
    ASSERT_FALSE(run->execution.scopes.empty());
    for (const auto& [path, charge] : run->execution.scopes) {
      EXPECT_TRUE(path == name || path.rfind(name + "/", 0) == 0) << path;
    }
  }
}

TEST_F(SystemsTest, FailedFitLeavesNoDeadlineArmed) {
  // Nothing survives evolution in a millisecond, so TPOT fails.
  TpotSystem tpot;
  const auto run = tpot.Fit(train_, Budget(1e-3), &ctx_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(ctx_.deadline(), kNoDeadline);
}

// --- guideline (Fig. 8) ---

TEST(GuidelineTest, DevelopmentBranch) {
  GuidelineQuery query;
  query.has_development_resources = true;
  query.planned_executions = 1000;
  EXPECT_EQ(RecommendSystem(query).system, "caml_tuned");
  query.planned_executions = 10;  // Below the 885-run amortization.
  EXPECT_NE(RecommendSystem(query).system, "caml_tuned");
}

TEST(GuidelineTest, TinyBudgetBranch) {
  GuidelineQuery query;
  query.search_budget_seconds = 5.0;
  query.num_classes = 2;
  EXPECT_EQ(RecommendSystem(query).system, "tabpfn");
  query.gpu_available = true;
  EXPECT_EQ(RecommendSystem(query).system, "tabpfn(gpu)");
  query.num_classes = 50;  // Beyond TabPFN's limit.
  EXPECT_EQ(RecommendSystem(query).system, "caml");
}

TEST(GuidelineTest, PriorityBranch) {
  GuidelineQuery query;
  query.search_budget_seconds = 300.0;
  query.priority = GuidelineQuery::Priority::kFastInference;
  EXPECT_EQ(RecommendSystem(query).system, "flaml");
  query.priority = GuidelineQuery::Priority::kAccuracy;
  EXPECT_EQ(RecommendSystem(query).system, "autogluon");
  query.priority = GuidelineQuery::Priority::kParetoOptimal;
  EXPECT_EQ(RecommendSystem(query).system, "caml");
}

TEST(GuidelineTest, RationaleAndChartNonEmpty) {
  EXPECT_FALSE(RecommendSystem(GuidelineQuery{}).rationale.empty());
  const std::string chart = RenderGuidelineChart();
  EXPECT_NE(chart.find("TabPFN"), std::string::npos);
  EXPECT_NE(chart.find("885"), std::string::npos);
}

}  // namespace
}  // namespace green
