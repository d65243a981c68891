// Development-stage investment — the paper's §2.5/§3.7 workflow as an
// API walkthrough: build a corpus, pick representative datasets with
// K-Means over meta-features, tune CAML's AutoML-system parameters with
// BO + median pruning, then verify the tuned system beats the default on
// held-out tasks and compute when the tuning energy amortizes.

#include <cmath>
#include <cstdio>

#include "green/automl/caml_system.h"
#include "green/data/meta_corpus.h"
#include "green/energy/co2.h"
#include "green/metaopt/automl_tuner.h"
#include "green/ml/metrics.h"
#include "green/table/split.h"

int main() {
  using namespace green;  // NOLINT: example brevity.

  // 1. A binary-classification corpus (the paper uses 124 OpenML sets).
  MetaCorpusOptions corpus_options;
  corpus_options.num_datasets = 20;
  SimulationProfile profile = SimulationProfile::Fast();
  profile.max_rows = 360;
  auto corpus = GenerateMetaCorpus(corpus_options, profile);
  if (!corpus.ok()) return 1;

  // 2-3. Representative selection + BO tuning, fully metered.
  AutoMlTunerOptions tuner_options;
  tuner_options.search_time_seconds = 1.5;
  tuner_options.bo_iterations = 10;
  tuner_options.top_k_datasets = 4;
  tuner_options.repetitions = 1;
  tuner_options.seed = 3;
  AutoMlTuner tuner(tuner_options);

  EnergyModel energy_model(MachineModel::XeonGold6132());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &energy_model, 1);
  auto tuned = tuner.Tune(*corpus, &ctx);
  if (!tuned.ok()) {
    std::fprintf(stderr, "tuning failed: %s\n",
                 tuned.status().ToString().c_str());
    return 1;
  }
  std::printf("development: %d trials (%d pruned), %.4f kWh, "
              "objective %.3f\n",
              tuned->trials_run, tuned->trials_pruned,
              tuned->development.kwh(), tuned->best_objective);
  std::printf("tuned space: ");
  for (const auto& model : tuned->best_params.models) {
    std::printf("%s ", model.c_str());
  }
  std::printf("\ntuned params: holdout=%.2f eval=%.2f sampling=%.2f "
              "refit=%d rvs=%d incremental=%d\n\n",
              tuned->best_params.holdout_fraction,
              tuned->best_params.evaluation_fraction,
              tuned->best_params.sampling_fraction,
              tuned->best_params.refit,
              tuned->best_params.random_validation_split,
              tuned->best_params.incremental_training);

  // 4. Evaluate default vs tuned CAML on corpus datasets NOT used for
  //    tuning (a fair held-out comparison).
  CamlSystem default_caml;
  CamlSystem tuned_caml(tuned->best_params, "caml_tuned");
  double default_acc = 0.0;
  double tuned_acc = 0.0;
  double default_kwh = 0.0;
  double tuned_kwh = 0.0;
  int evaluated = 0;
  for (size_t i = 0; i < corpus->size() && evaluated < 6; ++i) {
    bool used_for_tuning = false;
    for (size_t idx : tuned->representative_indices) {
      if (idx == i) used_for_tuning = true;
    }
    if (used_for_tuning) continue;
    Rng rng(100 + i);
    TrainTestData data = Materialize(
        (*corpus)[i], StratifiedSplit((*corpus)[i], 0.66, &rng));
    AutoMlOptions options;
    options.search_budget_seconds = tuner_options.search_time_seconds;
    options.seed = 200 + i;

    auto run_default = default_caml.Fit(data.train, options, &ctx);
    auto run_tuned = tuned_caml.Fit(data.train, options, &ctx);
    if (!run_default.ok() || !run_tuned.ok()) continue;
    auto preds_default = run_default->artifact.Predict(data.test, &ctx);
    auto preds_tuned = run_tuned->artifact.Predict(data.test, &ctx);
    if (!preds_default.ok() || !preds_tuned.ok()) continue;
    default_acc += BalancedAccuracy(data.test.labels(),
                                    preds_default.value(), 2);
    tuned_acc +=
        BalancedAccuracy(data.test.labels(), preds_tuned.value(), 2);
    default_kwh += run_default->execution.kwh();
    tuned_kwh += run_tuned->execution.kwh();
    ++evaluated;
  }
  if (evaluated == 0) return 1;
  default_acc /= evaluated;
  tuned_acc /= evaluated;
  std::printf("held-out comparison over %d datasets:\n", evaluated);
  std::printf("  default CAML: acc=%.3f  exec=%.4e kWh/run\n",
              default_acc, default_kwh / evaluated);
  std::printf("  tuned CAML  : acc=%.3f  exec=%.4e kWh/run\n", tuned_acc,
              tuned_kwh / evaluated);

  // 5. Amortization (the paper's 885-run criterion).
  const double saving =
      (default_kwh - tuned_kwh) / static_cast<double>(evaluated);
  const double runs = AmortizationRuns(tuned->development.kwh(), saving);
  if (std::isfinite(runs)) {
    std::printf(
        "\nthe tuning investment amortizes after ~%.0f executions.\n",
        runs);
  } else {
    std::printf(
        "\nno per-run execution saving at this scale — tuning pays off "
        "through accuracy instead (see Fig. 7).\n");
  }
  return 0;
}
