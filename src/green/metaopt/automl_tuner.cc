#include "green/metaopt/automl_tuner.h"

#include <algorithm>
#include <cmath>

#include "green/automl/automl_system.h"
#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/common/stringutil.h"
#include "green/metaopt/representative.h"
#include "green/ml/metrics.h"
#include "green/search/bayes_opt.h"
#include "green/search/median_pruner.h"
#include "green/table/split.h"

namespace green {

/// Trial layout: one inclusion switch per family of CAML's default search
/// space, then the six AutoML system parameters §3.7 lists (hold-out
/// fraction, evaluation fraction, sampling, refit, random validation
/// splitting, incremental training).
size_t AutoMlTuner::TrialDimension() { return CamlParams().models.size() + 6; }

CamlParams AutoMlTuner::DecodeTrial(const std::vector<double>& unit) {
  GREEN_CHECK(unit.size() == TrialDimension());
  CamlParams params;
  const std::vector<std::string> switchable = std::move(params.models);
  params.models.clear();
  for (size_t m = 0; m < switchable.size(); ++m) {
    if (unit[m] > 0.5) params.models.push_back(switchable[m]);
  }
  if (params.models.empty()) {
    // Decision trees "can be both simple and complex" — the safe core.
    params.models.push_back("decision_tree");
  }
  size_t i = switchable.size();
  params.holdout_fraction = 0.15 + 0.35 * unit[i++];
  params.evaluation_fraction =
      std::exp(std::log(0.03) +
               (std::log(0.35) - std::log(0.03)) * unit[i++]);
  params.sampling_fraction = 0.15 + 0.85 * unit[i++];
  params.refit = unit[i++] > 0.5;
  params.random_validation_split = unit[i++] > 0.5;
  params.incremental_training = unit[i++] > 0.5;
  return params;
}

Result<AutoMlTunerResult> AutoMlTuner::Tune(
    const std::vector<Dataset>& corpus, ExecutionContext* ctx) {
  if (corpus.empty()) return Status::InvalidArgument("empty corpus");

  EnergyMeter meter(ctx->model());
  ScopedMeter scope(ctx, &meter);
  ChargeScope tuner_scope(ctx, "automl_tuner");
  const double start = ctx->Now();

  AutoMlTunerResult result;
  GREEN_ASSIGN_OR_RETURN(
      result.representative_indices,
      SelectRepresentativeDatasets(corpus, options_.top_k_datasets,
                                   options_.seed));
  // Clustering cost: meta-features + Lloyd iterations.
  ctx->ChargeCpu(static_cast<double>(corpus.size()) * 400.0, 0.0);

  // Pre-split each representative dataset once.
  struct TuningTask {
    Dataset train;
    Dataset test;
  };
  std::vector<TuningTask> tasks;
  Rng rng(HashCombine(options_.seed, 0x7u));
  for (size_t idx : result.representative_indices) {
    TrainTestIndices split = StratifiedSplit(corpus[idx], 0.66, &rng);
    TrainTestData data = Materialize(corpus[idx], split);
    tasks.push_back(TuningTask{std::move(data.train),
                               std::move(data.test)});
  }

  AutoMlOptions run_options;
  run_options.search_budget_seconds = options_.search_time_seconds;
  run_options.cores = ctx->cores();

  // Balanced accuracy of one CamlParams setting on one task, averaged
  // over the configured repetitions (AutoML is nondeterministic; the
  // paper uses 2).
  auto evaluate_on_task =
      [&](const CamlParams& params, const TuningTask& task,
          uint64_t seed) -> Result<double> {
    double sum = 0.0;
    for (int rep = 0; rep < options_.repetitions; ++rep) {
      CamlSystem system(params, "caml_trial");
      AutoMlOptions local = run_options;
      local.seed = HashCombine(seed, rep + 1);
      GREEN_ASSIGN_OR_RETURN(AutoMlRunResult run,
                             system.Fit(task.train, local, ctx));
      GREEN_ASSIGN_OR_RETURN(
          std::vector<int> preds,
          run.artifact.Predict(task.test, ctx));
      sum += BalancedAccuracy(task.test.labels(), preds,
                              task.test.num_classes());
    }
    return sum / static_cast<double>(options_.repetitions);
  };

  // Baseline: the default parameters ("full search space and 0.33
  // hold-out validation").
  const CamlParams default_params;
  std::vector<double> baseline(tasks.size(), 0.0);
  for (size_t t = 0; t < tasks.size(); ++t) {
    GREEN_ASSIGN_OR_RETURN(
        baseline[t],
        evaluate_on_task(default_params, tasks[t],
                         HashCombine(options_.seed, 1000 + t)));
  }

  // BO over the trial space with median pruning across dataset steps.
  ParamSpace space;
  for (size_t i = 0; i < TrialDimension(); ++i) {
    space.Add(ParamSpec::Double(StrFormat("u%zu", i), 0.0, 1.0));
  }
  BayesOpt::Options bo_options;
  bo_options.num_initial_random =
      std::max(4, options_.bo_iterations / 10);
  bo_options.seed = HashCombine(options_.seed, 0x709);
  BayesOpt optimizer(&space, bo_options);
  MedianPruner pruner;

  for (int trial = 0; trial < options_.bo_iterations; ++trial) {
    const ParamPoint point = optimizer.Ask();
    const CamlParams params = DecodeTrial(point.unit);

    double objective = 0.0;
    double accuracy_sum = 0.0;
    bool pruned = false;
    size_t completed = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      auto acc = evaluate_on_task(
          params, tasks[t],
          HashCombine(options_.seed, 2000 + trial * 131 + t));
      if (!acc.ok()) {
        pruned = true;
        break;
      }
      accuracy_sum += acc.value();
      const double denom = std::max({acc.value(), baseline[t], 1e-9});
      objective += (acc.value() - baseline[t]) / denom;
      ++completed;
      if (pruner.ShouldPrune(static_cast<int>(t), objective)) {
        pruned = true;
        break;
      }
      pruner.ReportIntermediate(static_cast<int>(t), objective);
    }
    ++result.trials_run;
    if (pruned) {
      ++result.trials_pruned;
      // Pessimistic extrapolation of the partial objective.
      const double partial =
          completed > 0 ? objective / static_cast<double>(completed) *
                              static_cast<double>(tasks.size())
                        : -1.0;
      const double work = optimizer.Tell(point, partial - 0.25);
      ctx->ChargeCpu(work, 0.0, 0.2);
      continue;
    }
    const double work = optimizer.Tell(point, objective);
    ctx->ChargeCpu(work, 0.0, 0.2);
    if (objective > result.best_objective) {
      result.best_objective = objective;
      result.best_params = params;
      result.best_mean_accuracy =
          accuracy_sum / static_cast<double>(tasks.size());
    }
  }

  if (result.best_objective <= -1e300) {
    result.best_params = default_params;
    result.best_objective = 0.0;
  }
  result.development = scope.Stop();
  result.development_seconds = ctx->Now() - start;
  return result;
}

}  // namespace green
