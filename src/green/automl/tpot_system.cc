#include "green/automl/tpot_system.h"

#include <algorithm>

#include "green/automl/search_model_space.h"
#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/ml/metrics.h"
#include "green/search/nsga2.h"
#include "green/table/split.h"

namespace green {

Status TpotSystem::Search(const Dataset& train, const AutoMlOptions& options,
                          ExecutionContext* ctx, AutoMlRunResult* result) {
  Rng rng(options.seed);

  // Table 1: TPOT searches data/feature preprocessors and models.
  PipelineSpaceOptions space_options;
  space_options.models = FilterModelsForTask(
      {"decision_tree", "random_forest", "extra_trees",
       "gradient_boosting", "adaboost", "logistic_regression", "knn",
       "naive_bayes"},
      train.task());
  space_options.include_data_preprocessors = true;
  space_options.include_feature_preprocessors = true;
  PipelineSearchSpace space(space_options);

  const FoldViews views =
      MakeFoldViews(train, KFoldForTask(train, params_.cv_folds, &rng));

  int eval_counter = 0;
  // k-fold CV score of one configuration; every fold trains a fresh
  // pipeline — the cost multiplier that slows TPOT down.
  auto cross_validate =
      [&](const ParamPoint& point) -> Result<std::vector<double>> {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("tpot: cancelled mid-evolution");
    }
    const PipelineConfig config =
        space.ToConfig(point, HashCombine(options.seed, ++eval_counter));
    // TPOT enforces a per-evaluation timeout: pipelines whose k-fold CV
    // would not finish within a slice of the remaining budget are killed
    // (here: rejected up front from the cost estimate).
    const size_t fold_rows =
        train.num_rows() / static_cast<size_t>(params_.cv_folds);
    const double estimated =
        static_cast<double>(params_.cv_folds) *
        EstimateEvaluationSeconds(config, train.num_rows() - fold_rows,
                                  fold_rows, train.num_features(),
                                  train.num_classes(), *ctx);
    if (estimated > std::max(0.25 * options.search_budget_seconds,
                             ctx->RemainingBudget())) {
      ctx->ChargeCpu(500.0, 0.0, 0.2);  // Proposal bookkeeping.
      return Status::ResourceExhausted("pipeline exceeds eval timeout");
    }
    double score_sum = 0.0;
    double complexity = 0.0;
    int folds_done = 0;
    for (int f = 0; f < params_.cv_folds; ++f) {
      GREEN_ASSIGN_OR_RETURN(
          EvaluatedPipeline evaluated,
          TrainAndScore(config, views.fit[static_cast<size_t>(f)],
                        views.val[static_cast<size_t>(f)], ctx));
      score_sum += evaluated.val_score;
      complexity += evaluated.pipeline->ModelComplexity();
      ++folds_done;
    }
    ++result->pipelines_evaluated;
    const double mean_score =
        score_sum / static_cast<double>(folds_done);
    // TPOT's classic bi-objective: maximize accuracy, minimize pipeline
    // complexity (negated for maximization).
    return std::vector<double>{
        mean_score,
        -complexity / static_cast<double>(folds_done)};
  };

  Nsga2Options ga;
  ga.population_size = params_.population_size;
  ga.generations = 1000;  // Budget-bound, not generation-bound.
  ga.mutation_prob = params_.mutation_prob;
  ga.crossover_prob = params_.crossover_prob;
  ga.seed = HashCombine(options.seed, 0x9307);
  const Nsga2Result evolved = [&]() {
    ChargeScope search_scope(ctx, "search");
    return Nsga2(space.space(), ga, cross_validate,
                 [&]() { return ctx->DeadlineExceeded() || ctx->Cancelled(); });
  }();

  if (ctx->Cancelled()) {
    return Status::DeadlineExceeded("tpot: cancelled mid-evolution");
  }

  if (evolved.population.empty()) {
    return Status::Internal("tpot: no pipeline survived evolution");
  }
  // Final selection honours BOTH objectives: among first-front
  // individuals within 1% of the best CV accuracy, take the least
  // complex pipeline (TPOT's parsimony pressure at selection time).
  const Nsga2Individual* best = &evolved.population[0];
  for (const auto& ind : evolved.population) {
    if (ind.rank != 0) break;
    if (ind.objectives[0] > best->objectives[0]) best = &ind;
  }
  const double accuracy_floor = best->objectives[0] - 0.01;
  for (const auto& ind : evolved.population) {
    if (ind.rank != 0) break;
    if (ind.objectives[0] >= accuracy_floor &&
        ind.objectives[1] > best->objectives[1]) {
      best = &ind;  // Higher objectives[1] = lower complexity.
    }
  }
  GREEN_ASSIGN_OR_RETURN(ParamPoint best_point,
                         space.space().Decode(best->unit));
  const PipelineConfig best_config =
      space.ToConfig(best_point, HashCombine(options.seed, 0xbe57));
  GREEN_ASSIGN_OR_RETURN(Pipeline final_pipeline,
                         BuildPipeline(best_config));
  {
    ChargeScope phase(ctx, "refit");
    GREEN_RETURN_IF_ERROR(final_pipeline.Fit(train, ctx));
  }

  result->artifact = FittedArtifact::Single(
      std::make_shared<Pipeline>(std::move(final_pipeline)));
  result->best_validation_score = best->objectives[0];
  return Status::Ok();
}

}  // namespace green
