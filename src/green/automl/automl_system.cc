#include "green/automl/automl_system.h"

#include "green/common/mathutil.h"
#include "green/common/stringutil.h"
#include "green/ml/metrics.h"

namespace green {

Result<AutoMlRunResult> AutoMlSystem::Fit(const Dataset& train,
                                          const AutoMlOptions& options,
                                          ExecutionContext* ctx) {
  const std::string name = Name();
  GREEN_RETURN_IF_ERROR(CheckTaskSupported(*this, train.task()));
  if (train.num_rows() < MinTrainRows()) {
    return Status::InvalidArgument(name + ": too few rows");
  }
  if (ctx->Cancelled()) {
    return Status::DeadlineExceeded(name + ": cancelled before start");
  }
  EnergyMeter meter(ctx->model());
  ScopedMeter metered(ctx, &meter);
  ChargeScope scope(ctx, name);
  const double start = ctx->Now();
  ctx->SetDeadline(start + options.search_budget_seconds);
  AutoMlRunResult result;
  const Status searched = Search(train, options, ctx, &result);
  ctx->ClearDeadline();
  GREEN_RETURN_IF_ERROR(searched);
  result.execution = metered.Stop();
  result.actual_seconds = ctx->Now() - start;
  result.configured_budget_seconds = options.search_budget_seconds;
  return result;
}

Status CheckTaskSupported(const AutoMlSystem& system, TaskType task) {
  if (system.SupportsTask(task)) return Status::Ok();
  return Status::Unimplemented(StrFormat("%s: task %s not supported",
                                         system.Name().c_str(),
                                         TaskTypeName(task)));
}

Result<EvaluatedPipeline> TrainAndScore(const PipelineConfig& config,
                                        const Dataset& fit_data,
                                        const Dataset& val_data,
                                        ExecutionContext* ctx) {
  ChargeScope scope(ctx, "pipeline");
  GREEN_ASSIGN_OR_RETURN(Pipeline pipeline, BuildPipeline(config));
  GREEN_RETURN_IF_ERROR(pipeline.Fit(fit_data, ctx));

  EvaluatedPipeline out;
  out.pipeline = std::make_shared<Pipeline>(std::move(pipeline));
  GREEN_ASSIGN_OR_RETURN(out.val_proba,
                         out.pipeline->PredictProba(val_data, ctx));
  // Higher-is-better for every task (balanced accuracy, or -RMSE for
  // regression), so every system's "keep the best" logic is task-blind.
  out.val_score = PrimaryScore(val_data, out.val_proba);
  return out;
}

double EstimateInferenceSecondsPerRow(const Pipeline& pipeline,
                                      size_t raw_num_features,
                                      const ExecutionContext& ctx) {
  const double flops = pipeline.InferenceFlopsPerRow(raw_num_features);
  const double throughput =
      ctx.model()->machine().Throughput(Device::kCpu, 1);
  return flops / throughput;
}

double EstimateTrainSeconds(const PipelineConfig& config, size_t rows,
                            size_t features, int classes,
                            const ExecutionContext& ctx) {
  const double flops =
      EstimateTrainCost(config, rows, features, classes);
  const double throughput =
      ctx.model()->machine().Throughput(Device::kCpu, ctx.cores());
  return flops / throughput;
}

double EstimateEvaluationSeconds(const PipelineConfig& config,
                                 size_t train_rows, size_t val_rows,
                                 size_t features, int classes,
                                 const ExecutionContext& ctx) {
  const double flops =
      EstimateTrainCost(config, train_rows, features, classes) +
      EstimatePredictCost(config, train_rows, val_rows, features,
                          classes);
  const double throughput =
      ctx.model()->machine().Throughput(Device::kCpu, ctx.cores());
  return flops / throughput;
}

PipelineConfig CheapestConfig(TaskType task, uint64_t seed) {
  PipelineConfig config;
  config.model =
      task == TaskType::kRegression ? "decision_tree" : "naive_bayes";
  config.seed = seed;
  return config;
}

Result<EvaluatedPipeline> TrainFallback(const PipelineConfig& config,
                                        const TrainTestData& holdout,
                                        ExecutionContext* ctx,
                                        AutoMlRunResult* result) {
  ChargeScope phase(ctx, "fallback");
  GREEN_ASSIGN_OR_RETURN(
      EvaluatedPipeline evaluated,
      TrainAndScore(config, holdout.train, holdout.test, ctx));
  ++result->pipelines_evaluated;
  return evaluated;
}

bool AutoMlSystem::MayStartEvaluation(const ExecutionContext& ctx,
                                      double estimated_seconds) const {
  return green::MayStartEvaluation(budget_policy(), ctx.Now(), ctx.deadline(),
                                  estimated_seconds);
}

Status AutoMlSystem::FinishSingle(Incumbent best,
                                  const PipelineConfig& fallback,
                                  const TrainTestData& holdout,
                                  const Dataset* refit_data,
                                  ExecutionContext* ctx,
                                  AutoMlRunResult* result) const {
  if (best.pipeline == nullptr) {
    GREEN_ASSIGN_OR_RETURN(EvaluatedPipeline evaluated,
                           TrainFallback(fallback, holdout, ctx, result));
    best = Incumbent{evaluated.pipeline, evaluated.val_score, fallback};
  }
  if (refit_data != nullptr &&
      MayStartEvaluation(
          *ctx, EstimateTrainSeconds(best.config, refit_data->num_rows(),
                                     refit_data->num_features(),
                                     refit_data->num_classes(), *ctx))) {
    ChargeScope phase(ctx, "refit");
    GREEN_ASSIGN_OR_RETURN(Pipeline refitted, BuildPipeline(best.config));
    if (refitted.Fit(*refit_data, ctx).ok()) {
      best.pipeline = std::make_shared<Pipeline>(std::move(refitted));
    }
  }
  result->artifact = FittedArtifact::Single(best.pipeline);
  result->best_validation_score = best.score;
  return Status::Ok();
}

}  // namespace green
