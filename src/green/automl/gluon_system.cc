#include "green/automl/gluon_system.h"

#include <algorithm>

#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/ml/metrics.h"
#include "green/search/caruana.h"
#include "green/sim/task_scheduler.h"
#include "green/table/split.h"

namespace green {

std::vector<PipelineConfig> GluonSystem::DefaultPortfolio(uint64_t seed) {
  std::vector<PipelineConfig> portfolio;
  auto add = [&](const std::string& model,
                 std::map<std::string, double> params) {
    PipelineConfig config;
    config.model = model;
    config.params = std::move(params);
    config.seed = HashCombine(seed, portfolio.size() + 1);
    portfolio.push_back(std::move(config));
  };
  // Cheap -> expensive by full evaluation cost (training + out-of-fold
  // scoring), mirroring AutoGluon's default model order; kNN trains for
  // free but its fold scoring is O(n^2 d), so it sits late in the plan.
  add("naive_bayes", {});
  add("decision_tree", {{"max_depth", 6}});
  add("logistic_regression", {{"epochs", 8}});
  add("extra_trees", {{"num_trees", 12}, {"max_depth", 8}});
  add("random_forest", {{"num_trees", 20}, {"max_depth", 10}});
  add("gradient_boosting",
      {{"num_rounds", 25}, {"max_depth", 3}, {"learning_rate", 0.15}});
  add("knn", {{"k", 7}});
  add("mlp", {{"hidden_units", 24}, {"epochs", 20}});
  return portfolio;
}

Status GluonSystem::Search(const Dataset& train, const AutoMlOptions& options,
                           ExecutionContext* ctx, AutoMlRunResult* result) {
  Rng rng(options.seed);

  // --- Planning: pick the portfolio prefix whose ESTIMATED runtime fits
  // the budget. The estimate is generous (it ignores stacking and
  // weighting overhead), so short budgets overshoot — by design, this is
  // AutoGluon's documented behaviour the paper measures in Table 7.
  std::vector<PipelineConfig> portfolio = DefaultPortfolio(options.seed);
  // Regression drops the classification-only portfolio entries; the
  // survivors keep their original per-slot seeds so classification runs
  // are untouched.
  portfolio.erase(
      std::remove_if(portfolio.begin(), portfolio.end(),
                     [&](const PipelineConfig& config) {
                       return !ModelSupportsTask(config.model, train.task());
                     }),
      portfolio.end());
  const int k_folds = params_.bagging_folds;
  std::vector<PipelineConfig> planned;
  {
    // AutoGluon's planning estimates are calibrated once, not per host:
    // the plan is made against the reference machine's single-core
    // throughput, so the ensemble composition does not change on a
    // slower host (it just takes longer) — this is what makes the
    // paper's Table 3 GPU-node comparison apples-to-apples.
    const double throughput =
        MachineModel::XeonGold6132().Throughput(Device::kCpu, 1);
    const size_t fold_train =
        train.num_rows() * static_cast<size_t>(k_folds - 1) /
        static_cast<size_t>(k_folds);
    const size_t fold_val = train.num_rows() / static_cast<size_t>(k_folds);
    std::vector<double> task_seconds;
    for (const PipelineConfig& config : portfolio) {
      // One bagged fold = train on (k-1)/k of the rows, score the rest.
      // Estimated at SINGLE-CORE speed so the plan's composition is
      // core-independent (extra cores only shorten the wall time).
      const double per_fold =
          (EstimateTrainCost(config, fold_train, train.num_features(),
                             train.num_classes()) +
           EstimatePredictCost(config, fold_train, fold_val,
                               train.num_features(),
                               train.num_classes())) /
          throughput;
      std::vector<double> with_this = task_seconds;
      for (int f = 0; f < k_folds; ++f) with_this.push_back(per_fold);
      // The plan is computed against a single-core schedule so the
      // ensemble composition does not depend on the core count — the
      // paper observes AutoGluon "builds always the same ensemble";
      // extra cores then only shorten the wall time (Fig. 5).
      const double makespan =
          TaskGraphScheduler::ScheduleBatch(with_this, 1)
              .makespan_seconds;
      // Always keep at least the three cheapest members (the minimum
      // ensemble AutoGluon insists on — the source of small-budget
      // overruns). The estimate ignores stacking and weighting overhead,
      // which adds AutoGluon's characteristic extra overshoot.
      if (planned.size() >= 3 &&
          makespan > 0.7 * options.search_budget_seconds) {
        break;
      }
      task_seconds = std::move(with_this);
      planned.push_back(config);
    }
  }

  // --- Layer 1: bagged training with out-of-fold predictions.
  const std::vector<std::vector<size_t>> folds =
      KFoldForTask(train, k_folds, &rng);
  // One fit/val view pair per fold, shared by every planned config.
  const FoldViews views = MakeFoldViews(train, folds);
  std::vector<FittedArtifact::Member> base_members;
  std::vector<PipelineConfig> base_configs;  // Config per successful member.
  std::vector<ProbaMatrix> base_oof;  // One (n x k) matrix per member.
  const size_t n = train.num_rows();
  const size_t k_classes = static_cast<size_t>(train.num_classes());

  {
  ChargeScope phase(ctx, "bagging");
  for (const PipelineConfig& config : planned) {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("autogluon: cancelled mid-bagging");
    }
    FittedArtifact::Member member;
    // Out-of-fold prior for rows no fold scored: the uniform class
    // distribution, or the target mean for regression (k_classes is 1
    // there, so the uniform prior would be a constant 1.0).
    const double oof_prior = train.task() == TaskType::kRegression
                                 ? train.TargetMean()
                                 : 1.0 / static_cast<double>(k_classes);
    ProbaMatrix oof(n, std::vector<double>(k_classes, oof_prior));
    bool ok = true;
    for (int f = 0; f < k_folds; ++f) {
      auto built = BuildPipeline(config);
      if (!built.ok()) {
        ok = false;
        break;
      }
      Pipeline pipeline = std::move(built).value();
      if (!pipeline.Fit(views.fit[static_cast<size_t>(f)], ctx).ok()) {
        ok = false;
        break;
      }
      auto proba =
          pipeline.PredictProba(views.val[static_cast<size_t>(f)], ctx);
      if (!proba.ok()) {
        ok = false;
        break;
      }
      for (size_t i = 0; i < folds[static_cast<size_t>(f)].size(); ++i) {
        oof[folds[static_cast<size_t>(f)][i]] = proba.value()[i];
      }
      member.folds.push_back(
          std::make_shared<Pipeline>(std::move(pipeline)));
    }
    if (!ok || member.folds.empty()) continue;
    ++result->pipelines_evaluated;
    base_members.push_back(std::move(member));
    base_configs.push_back(config);
    base_oof.push_back(std::move(oof));
  }
  }
  if (base_members.empty()) {
    return Status::Internal("autogluon: portfolio training failed");
  }

  // --- Layer 2: stacker models on [X | OOF probabilities].
  const size_t aug_width = train.num_features() + base_members.size() *
                                                       k_classes;
  Dataset augmented = Dataset::Like(train, train.name(), aug_width);
  augmented.SetNominalSize(train.nominal_rows(), train.nominal_features());
  for (size_t j = 0; j < train.num_features(); ++j) {
    augmented.SetFeatureType(j, train.feature_type(j));
  }
  {
    ChargeScope phase(ctx, "stacking");
    augmented.Reserve(n);
    std::vector<double> row(aug_width);
    for (size_t i = 0; i < n; ++i) {
      const double* p = train.RowPtr(i);
      std::copy(p, p + train.num_features(), row.begin());
      size_t o = train.num_features();
      for (size_t m = 0; m < base_members.size(); ++m) {
        for (size_t c = 0; c < k_classes; ++c) {
          row[o++] = base_oof[m][i][c];
        }
      }
      GREEN_RETURN_IF_ERROR(augmented.AppendRowLike(train, i, row));
    }
    ctx->ChargeCpu(static_cast<double>(n * aug_width),
                   augmented.FeatureBytes());
  }

  TrainTestData meta_holdout =
      Materialize(augmented, SplitForTask(augmented, 0.75, &rng));

  // A compact stacker set, scaled to the budget remaining after layer 1:
  // a linear stacker always runs; forest and boosted-tree stackers join
  // when their estimated cost fits what is left of the (soft) budget.
  std::vector<PipelineConfig> stackers;
  {
    PipelineConfig lr;
    lr.model = "logistic_regression";
    lr.params = {{"epochs", 5}};
    lr.seed = HashCombine(options.seed, 0x9003);
    stackers.push_back(lr);

    // Stacker admission uses SINGLE-CORE cost estimates against the
    // budget, like the portfolio plan: the ensemble composition must not
    // depend on the core count (Fig. 5's fixed-workload premise).
    const double throughput_1core =
        MachineModel::XeonGold6132().Throughput(Device::kCpu, 1);
    auto single_core_seconds = [&](const PipelineConfig& config) {
      return EstimateTrainCost(config, augmented.num_rows(),
                               augmented.num_features(),
                               augmented.num_classes()) /
             throughput_1core;
    };
    double stacker_allowance = 0.3 * options.search_budget_seconds;
    PipelineConfig rf;
    rf.model = "random_forest";
    rf.params = {{"num_trees", 12}, {"max_depth", 8}};
    rf.seed = HashCombine(options.seed, 0x9002);
    const double rf_cost = single_core_seconds(rf);
    if (rf_cost < stacker_allowance) {
      stackers.push_back(rf);
      stacker_allowance -= rf_cost;
    }
    PipelineConfig gb;
    gb.model = "gradient_boosting";
    gb.params = {{"num_rounds", 15}, {"max_depth", 2}};
    gb.seed = HashCombine(options.seed, 0x9001);
    if (single_core_seconds(gb) < stacker_allowance) {
      stackers.push_back(gb);
    }
  }

  std::vector<EvaluatedPipeline> meta_models;
  {
  ChargeScope phase(ctx, "stacking");
  for (const PipelineConfig& config : stackers) {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("autogluon: cancelled mid-stacking");
    }
    auto evaluated = TrainAndScore(config, meta_holdout.train,
                                   meta_holdout.test, ctx);
    if (!evaluated.ok()) continue;
    ++result->pipelines_evaluated;
    meta_models.push_back(std::move(evaluated).value());
  }
  }
  if (meta_models.empty()) {
    return Status::Internal("autogluon: stacking layer failed");
  }

  // --- Caruana weighting over the stacker outputs.
  std::vector<ProbaMatrix> meta_proba;
  for (const auto& m : meta_models) meta_proba.push_back(m.val_proba);
  CaruanaOptions caruana_options;
  caruana_options.max_rounds = params_.caruana_rounds;
  const CaruanaResult caruana = CaruanaEnsembleSelection(
      meta_proba, meta_holdout.test, caruana_options);
  {
    ChargeScope ensemble_scope(ctx, "ensemble");
    ctx->ChargeCpu(caruana.work, 0.0, /*parallel_fraction=*/0.5);
  }

  std::vector<FittedArtifact::Member> meta_members;
  for (size_t i = 0; i < meta_models.size(); ++i) {
    const double w =
        caruana.weights.empty() ? 1.0 : caruana.weights[i];
    if (w <= 0.0) continue;
    FittedArtifact::Member member;
    member.folds.push_back(meta_models[i].pipeline);
    member.weight = w;
    meta_members.push_back(std::move(member));
  }
  if (meta_members.empty()) {
    FittedArtifact::Member member;
    member.folds.push_back(meta_models[0].pipeline);
    meta_members.push_back(std::move(member));
  }

  // --- Optional refit for faster inference: collapse each bagged member
  // into ONE pipeline trained on all rows.
  if (params_.refit_for_inference) {
    ChargeScope phase(ctx, "refit");
    std::vector<FittedArtifact::Member> refit_members;
    for (size_t m = 0; m < base_members.size(); ++m) {
      PipelineConfig config = base_configs[m];
      config.seed = HashCombine(options.seed, 0x7e17 + m);
      auto built = BuildPipeline(config);
      if (!built.ok()) continue;
      Pipeline pipeline = std::move(built).value();
      if (!pipeline.Fit(train, ctx).ok()) continue;
      FittedArtifact::Member member;
      member.folds.push_back(
          std::make_shared<Pipeline>(std::move(pipeline)));
      refit_members.push_back(std::move(member));
    }
    if (!refit_members.empty()) base_members = std::move(refit_members);
  }

  result->artifact = FittedArtifact::Stacked(
      std::move(base_members), std::move(meta_members), train.schema());
  result->best_validation_score = caruana.validation_score;
  return Status::Ok();
}

}  // namespace green
