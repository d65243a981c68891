// Figure 3: search time vs average balanced accuracy vs energy during
// execution (left chart) and inference (right chart), for every AutoML
// system. Reported numbers are scaled back to paper scale; see DESIGN.md.

#include <cstdio>

#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/table_printer.h"
#include "green/common/stringutil.h"

namespace green {
namespace {

int Main() {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  ExperimentRunner runner(config);

  const std::vector<std::string> systems = {
      "tabpfn",       "caml",  "flaml",        "autogluon",
      "autosklearn1", "autosklearn2", "tpot"};
  auto sweep = runner.Sweep(systems, config.paper_budgets);
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }
  // Aggregate over measured cells only; failures are reported below.
  const std::vector<RunRecord> records = OkOnly(*sweep);

  const std::string failures = RenderFailureSummary(*sweep);
  if (!failures.empty()) {
    PrintBanner("Non-ok cells (excluded from the charts)");
    std::printf("%s", failures.c_str());
  }

  PrintBanner(
      "Figure 3 (left): execution — balanced accuracy vs energy (kWh)");
  TablePrinter exec_table({"system", "budget", "bal.acc (mean±std)",
                           "exec kWh", "exec seconds"});
  for (const std::string& system : DistinctSystems(records)) {
    for (double budget : DistinctBudgets(records, system)) {
      const auto cell = Filter(records, system, budget);
      const Stats acc = BootstrapAcrossDatasets(
          cell,
          [](const RunRecord& r) { return r.test_balanced_accuracy; },
          200, 1);
      const Stats kwh = BootstrapAcrossDatasets(
          cell, [](const RunRecord& r) { return r.execution_kwh; }, 200,
          2);
      const Stats secs = BootstrapAcrossDatasets(
          cell, [](const RunRecord& r) { return r.execution_seconds; },
          200, 3);
      exec_table.AddRow({system, StrFormat("%gs", budget),
                         StrFormat("%.3f ± %.3f", acc.mean, acc.stddev),
                         StrFormat("%.5f", kwh.mean),
                         StrFormat("%.1f", secs.mean)});
    }
  }
  exec_table.Print();

  PrintBanner(
      "Figure 3 (right): inference — balanced accuracy vs energy "
      "(kWh per predicted instance)");
  TablePrinter infer_table(
      {"system", "budget", "bal.acc", "inference kWh/instance"});
  for (const std::string& system : DistinctSystems(records)) {
    for (double budget : DistinctBudgets(records, system)) {
      const auto cell = Filter(records, system, budget);
      const Stats acc = BootstrapAcrossDatasets(
          cell,
          [](const RunRecord& r) { return r.test_balanced_accuracy; },
          200, 1);
      const Stats inf = BootstrapAcrossDatasets(
          cell,
          [](const RunRecord& r) {
            return r.inference_kwh_per_instance;
          },
          200, 4);
      infer_table.AddRow({system, StrFormat("%gs", budget),
                          StrFormat("%.3f", acc.mean),
                          FormatSci(inf.mean)});
    }
  }
  infer_table.Print();

  // §3.2.1-style footnote: execution-energy variability across datasets.
  PrintBanner("Dataset-level execution-energy std at 5min (cf. §3.2.1)");
  TablePrinter std_table({"system", "kWh std across datasets"});
  for (const std::string& system : {"caml", "autogluon"}) {
    std::vector<double> per_dataset;
    for (const RunRecord& r : Filter(records, system, 300.0)) {
      per_dataset.push_back(r.execution_kwh);
    }
    std_table.AddRow({system,
                      StrFormat("%.5f", ComputeStats(per_dataset).stddev)});
  }
  std_table.Print();

  if (config.collect_scopes) {
    PrintBanner("Per-operator energy attribution (GREEN_SCOPES=1)");
    const std::string breakdown = RenderEnergyBreakdown(*sweep);
    std::printf("%s", breakdown.empty()
                          ? "(no scope data collected)\n"
                          : breakdown.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace green

int main() { return green::Main(); }
