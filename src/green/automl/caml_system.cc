#include "green/automl/caml_system.h"

#include <algorithm>
#include <cmath>

#include "green/common/logging.h"
#include "green/search/bayes_opt.h"
#include "green/table/split.h"

namespace green {

Status CamlSystem::Search(const Dataset& train, const AutoMlOptions& options,
                          ExecutionContext* ctx, AutoMlRunResult* result) {
  Rng rng(options.seed);

  // Optional up-front sampling (the search-time-specific sampling step
  // the paper's tuned CAML always selects). The no-subsample path works
  // on the caller's dataset directly — no copy, not even of labels.
  Dataset sampled;
  const Dataset& working =
      params_.sampling_fraction < 1.0 ? sampled : train;
  if (params_.sampling_fraction < 1.0) {
    ChargeScope phase(ctx, "sampling");
    const size_t n = std::max<size_t>(
        static_cast<size_t>(train.num_classes()) * 2,
        static_cast<size_t>(params_.sampling_fraction *
                            static_cast<double>(train.num_rows())));
    sampled = train.Subset(SampleRows(train, n, &rng));
    ctx->ChargeCpu(static_cast<double>(working.num_rows()),
                   working.FeatureBytes());
  }

  // Hold-out split (re-drawn per iteration under random_validation_split).
  TrainTestData holdout = Materialize(
      working, SplitForTask(working, 1.0 - params_.holdout_fraction, &rng));

  PipelineSpaceOptions space_options;
  space_options.models = FilterModelsForTask(params_.models, train.task());
  space_options.include_data_preprocessors = true;
  space_options.include_feature_preprocessors = false;  // Table 1: CAML.
  PipelineSearchSpace space(space_options);

  BayesOpt::Options bo_options;
  bo_options.num_initial_random = params_.num_initial_random;
  bo_options.seed = HashCombine(options.seed, 0xca31);
  BayesOpt optimizer(&space.space(), bo_options);

  Incumbent best;

  const double eval_time_cap =
      params_.evaluation_fraction * options.search_budget_seconds;

  int iteration = 0;
  int stall = 0;  // Consecutive evaluations without improvement.
  {
  ChargeScope search_scope(ctx, "search");
  while (!ctx->DeadlineExceeded()) {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("caml: cancelled mid-search");
    }
    if (params_.early_stopping_patience > 0 &&
        stall >= params_.early_stopping_patience) {
      break;  // §3.8: stop once the search stops improving.
    }
    const ParamPoint point = optimizer.Ask();
    const PipelineConfig config =
        space.ToConfig(point, HashCombine(options.seed, iteration + 1));
    ++iteration;

    // Evaluation-fraction pruning: skip configurations whose estimated
    // training time exceeds the per-evaluation cap (strict policy also
    // refuses anything that would cross the deadline).
    // Full-evaluation estimate (training + validation scoring) with a
    // safety margin: CAML enforces its budget strictly, so it would
    // rather skip a borderline evaluation than overrun (Table 7).
    const double estimated =
        1.4 * EstimateEvaluationSeconds(
                  config, holdout.train.num_rows(),
                  holdout.test.num_rows(), holdout.train.num_features(),
                  holdout.train.num_classes(), *ctx);
    if (estimated > eval_time_cap) {
      // Discourage this region. Proposal + surrogate bookkeeping is not
      // free: charging it keeps the virtual clock moving even when every
      // candidate is too expensive for the evaluation cap.
      const double work = optimizer.Tell(point, 0.0);
      ctx->ChargeCpu(std::max(work, 500.0), 0.0,
                     /*parallel_fraction=*/0.2);
      continue;
    }
    if (!MayStartEvaluation(*ctx, estimated)) {
      break;
    }

    if (params_.random_validation_split) {
      holdout = Materialize(
          working,
          SplitForTask(working, 1.0 - params_.holdout_fraction, &rng));
      ctx->ChargeCpu(static_cast<double>(working.num_rows()),
                     working.FeatureBytes());
    }

    Result<EvaluatedPipeline> evaluated = Status::Internal("unset");
    if (params_.incremental_training &&
        holdout.train.num_rows() >
            static_cast<size_t>(40 * holdout.train.num_classes())) {
      // Incremental training: fit on growing per-class samples; abandon
      // early if the small-sample score is hopeless vs the incumbent.
      const int start_per_class = 10;
      int per_class = start_per_class;
      Result<EvaluatedPipeline> last = Status::Internal("unset");
      while (true) {
        Dataset stage = holdout.train.Subset(
            SamplePerClass(holdout.train, per_class, &rng));
        last = TrainAndScore(config, stage, holdout.test, ctx);
        if (!last.ok()) break;
        const bool full = stage.num_rows() == holdout.train.num_rows();
        if (full) break;
        if (last.value().val_score < 0.5 * best.score &&
            best.score > 0.0) {
          break;  // Abandoned at low fidelity.
        }
        if (ctx->Now() + estimated > ctx->deadline()) break;
        per_class *= 4;
        if (static_cast<size_t>(per_class) *
                static_cast<size_t>(holdout.train.num_classes()) >=
            holdout.train.num_rows()) {
          // Full-fidelity pass only if it still fits the strict budget.
          if (ctx->Now() + estimated <= ctx->deadline()) {
            last =
                TrainAndScore(config, holdout.train, holdout.test, ctx);
          }
          break;
        }
      }
      evaluated = std::move(last);
    } else {
      evaluated = TrainAndScore(config, holdout.train, holdout.test, ctx);
    }

    if (!evaluated.ok()) {
      const double work = optimizer.Tell(point, 0.0);
      ctx->ChargeCpu(std::max(work, 500.0), 0.0,
                     /*parallel_fraction=*/0.2);
      continue;
    }
    ++result->pipelines_evaluated;

    double score = evaluated.value().val_score;
    // Inference-time constraint as a hard filter on trained candidates.
    if (std::isfinite(options.max_inference_seconds_per_row)) {
      const double per_row = EstimateInferenceSecondsPerRow(
          *evaluated.value().pipeline, train.num_features(), *ctx);
      if (per_row > options.max_inference_seconds_per_row) {
        optimizer.Tell(point, 0.0);
        continue;
      }
    }

    // CO2-aware objective: penalize serving cost on a log scale so the
    // search prefers equally-accurate-but-cheaper pipelines.
    if (params_.energy_weight > 0.0) {
      const double flops_per_row =
          evaluated.value().pipeline->InferenceFlopsPerRow(
              train.num_features());
      score -= params_.energy_weight *
               std::log10(1.0 + flops_per_row) / 6.0;
    }

    const double surrogate_work = optimizer.Tell(point, score);
    ctx->ChargeCpu(surrogate_work, 0.0, /*parallel_fraction=*/0.2);

    if (score > best.score) {
      best = Incumbent{evaluated.value().pipeline, score, config};
      stall = 0;
    } else {
      ++stall;
    }
  }
  }

  // Optional refit on the merged training + validation data (a tuned
  // AutoML parameter; affects inference energy through model size).
  return FinishSingle(std::move(best),
                      CheapestConfig(train.task(), options.seed), holdout,
                      params_.refit ? &working : nullptr, ctx, result);
}

}  // namespace green
