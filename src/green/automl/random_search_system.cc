#include "green/automl/random_search_system.h"

#include <algorithm>

#include "green/automl/caml_system.h"
#include "green/automl/search_model_space.h"
#include "green/common/logging.h"
#include "green/table/split.h"

namespace green {

Status RandomSearchSystem::Search(const Dataset& train,
                                  const AutoMlOptions& options,
                                  ExecutionContext* ctx,
                                  AutoMlRunResult* result) {
  Rng rng(options.seed);
  TrainTestData holdout = Materialize(
      train, SplitForTask(train, 1.0 - params_.holdout_fraction, &rng));

  // The same space CAML searches, so the only difference is the strategy.
  PipelineSpaceOptions space_options;
  space_options.models = FilterModelsForTask(CamlParams().models, train.task());
  PipelineSearchSpace space(space_options);

  Incumbent best;
  const double eval_time_cap =
      params_.evaluation_fraction * options.search_budget_seconds;

  int iteration = 0;
  {
  ChargeScope search_scope(ctx, "search");
  while (!ctx->DeadlineExceeded()) {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("random_search: cancelled mid-search");
    }
    const PipelineConfig config = space.SampleConfig(
        &rng, HashCombine(options.seed, ++iteration));
    const double estimated =
        1.4 * EstimateEvaluationSeconds(
                  config, holdout.train.num_rows(),
                  holdout.test.num_rows(), holdout.train.num_features(),
                  holdout.train.num_classes(), *ctx);
    if (estimated > eval_time_cap) {
      ctx->ChargeCpu(500.0, 0.0, 0.2);  // Sampling bookkeeping.
      continue;
    }
    if (!MayStartEvaluation(*ctx, estimated)) break;

    auto evaluated =
        TrainAndScore(config, holdout.train, holdout.test, ctx);
    if (!evaluated.ok()) continue;
    ++result->pipelines_evaluated;
    if (evaluated.value().val_score > best.score) {
      best = Incumbent{evaluated.value().pipeline,
                       evaluated.value().val_score, config};
    }
  }
  }

  return FinishSingle(std::move(best),
                      CheapestConfig(train.task(), options.seed), holdout,
                      /*refit_data=*/nullptr, ctx, result);
}

}  // namespace green
