#include "green/automl/autopt_system.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "green/common/logging.h"
#include "green/search/successive_halving.h"
#include "green/table/split.h"

namespace green {

namespace {

/// One ladder arm: an MLP pipeline config at FULL fidelity; rungs scale
/// the epoch count down by their budget fraction.
struct Arm {
  PipelineConfig config;
  int full_epochs = 0;
};

std::vector<Arm> SampleArms(int num_arms, uint64_t seed, Rng* rng) {
  static const int kHiddenChoices[] = {8, 16, 24, 32, 48, 64};
  static const int kEpochChoices[] = {20, 30, 40, 60};
  std::vector<Arm> arms;
  arms.reserve(static_cast<size_t>(num_arms));
  for (int a = 0; a < num_arms; ++a) {
    Arm arm;
    arm.config.model = "mlp";
    arm.config.scaler = rng->NextBool() ? "standard" : "minmax";
    arm.config.params["hidden_units"] = static_cast<double>(
        kHiddenChoices[rng->NextBounded(std::size(kHiddenChoices))]);
    arm.full_epochs =
        kEpochChoices[rng->NextBounded(std::size(kEpochChoices))];
    // Log-uniform learning rate in [0.01, 0.2].
    arm.config.params["learning_rate"] =
        0.01 * std::pow(20.0, rng->NextDouble());
    arm.config.params["batch_size"] =
        rng->NextBool() ? 32.0 : 64.0;
    arm.config.seed = HashCombine(seed, static_cast<uint64_t>(a) + 0xa7);
    arms.push_back(std::move(arm));
  }
  return arms;
}

/// The any-time fallback: a minimal MLP, for when the ladder produced
/// nothing (extreme budgets eliminate every arm up front).
PipelineConfig MinimalMlp(uint64_t seed) {
  PipelineConfig config;
  config.model = "mlp";
  config.params = {{"hidden_units", 8.0}, {"epochs", 4.0}};
  config.seed = seed;
  return config;
}

}  // namespace

Status AutoPtSystem::Search(const Dataset& train,
                            const AutoMlOptions& options,
                            ExecutionContext* ctx, AutoMlRunResult* result) {
  Rng rng(options.seed);
  TrainTestData holdout = Materialize(
      train, SplitForTask(train, 1.0 - params_.holdout_fraction, &rng));

  std::vector<Arm> arms =
      SampleArms(params_.num_arms, options.seed, &rng);
  // Highest-fidelity pipeline/score seen per arm; the ladder winner's
  // entry becomes the artifact (or the refit seed).
  std::vector<std::shared_ptr<Pipeline>> arm_pipeline(arms.size());
  std::vector<double> arm_score(
      arms.size(), -std::numeric_limits<double>::infinity());

  SuccessiveHalvingOptions sh_options;
  sh_options.num_rungs = params_.num_rungs;
  sh_options.eta = params_.eta;
  sh_options.min_fraction = params_.min_budget_fraction;

  auto evaluate = [&](int arm_index, int rung,
                      double budget_fraction) -> Result<double> {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("autopt: cancelled mid-search");
    }
    const Arm& arm = arms[static_cast<size_t>(arm_index)];
    PipelineConfig config = arm.config;
    const int epochs = std::max(
        2, static_cast<int>(budget_fraction *
                                static_cast<double>(arm.full_epochs) +
                            0.5));
    config.params["epochs"] = static_cast<double>(epochs);
    config.seed = HashCombine(arm.config.seed,
                              static_cast<uint64_t>(rung) + 1);
    const double estimated =
        1.2 * EstimateEvaluationSeconds(
                  config, holdout.train.num_rows(),
                  holdout.test.num_rows(), holdout.train.num_features(),
                  holdout.train.num_classes(), *ctx);
    if (!MayStartEvaluation(*ctx, estimated)) {
      return Status::DeadlineExceeded("autopt: budget exhausted");
    }
    GREEN_ASSIGN_OR_RETURN(
        EvaluatedPipeline evaluated,
        TrainAndScore(config, holdout.train, holdout.test, ctx));
    ++result->pipelines_evaluated;
    arm_pipeline[static_cast<size_t>(arm_index)] = evaluated.pipeline;
    arm_score[static_cast<size_t>(arm_index)] = evaluated.val_score;
    return evaluated.val_score;
  };

  SuccessiveHalvingResult halving;
  {
    ChargeScope search_scope(ctx, "search");
    halving = SuccessiveHalving(
        static_cast<int>(arms.size()), sh_options, evaluate, [&]() {
          return ctx->DeadlineExceeded() || ctx->Cancelled();
        });
  }
  if (ctx->Cancelled()) {
    return Status::DeadlineExceeded("autopt: cancelled mid-search");
  }

  Incumbent best;
  if (halving.best_arm >= 0 &&
      arm_pipeline[static_cast<size_t>(halving.best_arm)] != nullptr) {
    const size_t b = static_cast<size_t>(halving.best_arm);
    best = Incumbent{arm_pipeline[b], arm_score[b], arms[b].config};
    best.config.params["epochs"] =
        static_cast<double>(arms[b].full_epochs);
  }

  // Refit the winner on ALL rows at full fidelity (Auto-PyTorch's final
  // training pass), budget permitting.
  return FinishSingle(std::move(best), MinimalMlp(options.seed), holdout,
                      params_.refit ? &train : nullptr, ctx, result);
}

}  // namespace green
