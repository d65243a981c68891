// The paper's exhibits: every table and figure of the evaluation section
// plus the two extension ablations, each rendered in the paper's shape.
// Reported numbers are scaled back to paper scale; see DESIGN.md.
//
//   bench/paper                        every exhibit, in table order
//   bench/paper fig4_prediction_scale  only the named exhibits, in order
//
// The configuration comes from the environment (ExperimentConfig::FromEnv).
// Seven exhibits read subsets of one (system x budget) grid: the driver
// runs one ExperimentRunner::Sweep over the union of the selected
// exhibits' grids and hands each renderer its own cells in the order a
// sweep of its grid alone enumerates them. Run seeds depend only on the
// cell, so every exhibit prints what a sweep of its own would print;
// bench/golden/<exhibit>.txt holds those bytes (ctest paper_golden).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "green/automl/caml_system.h"
#include "green/automl/guideline.h"
#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/table_printer.h"
#include "green/common/knobs.h"
#include "green/common/stringutil.h"
#include "green/data/meta_corpus.h"
#include "green/energy/co2.h"
#include "green/metaopt/automl_tuner.h"
#include "green/metaopt/tuned_config_store.h"
#include "green/ml/metrics.h"
#include "green/table/split.h"

namespace green {
namespace {

const std::vector<double> kPaperBudgets = {10.0, 30.0, 60.0, 300.0};

/// The (system x paper budget) cells an exhibit reads from the shared
/// sweep. Empty for exhibits that sweep nothing or run their own sweeps.
struct Grid {
  std::vector<std::string> systems;
  std::vector<double> budgets;
};

/// What a renderer reads.
struct ExhibitInput {
  const ExperimentConfig& config;
  const Grid& grid;
  /// The exhibit's cells of the shared sweep, every outcome included.
  const std::vector<RunRecord>& sweep;
  /// The development-stage meta-corpus of fig7 and tables 8 and 9.
  const std::vector<Dataset>& dev_corpus;
};

bool FullProfile(const ExperimentConfig& config) {
  return config.repetitions >= 10;
}

/// The config with the suite trimmed to at most `limit` tasks, for the
/// exhibits that multiply their cells by a variant axis.
ExperimentConfig Trimmed(ExperimentConfig config, size_t limit) {
  if (config.dataset_limit == 0 || config.dataset_limit > limit) {
    config.dataset_limit = limit;
  }
  return config;
}

/// The paper's across-dataset bootstrap (200 samples) of one metric.
Stats Bootstrap(const std::vector<RunRecord>& cell,
                double RunRecord::*metric, uint64_t seed) {
  return BootstrapAcrossDatasets(
      cell, [metric](const RunRecord& r) { return r.*metric; }, 200, seed);
}

/// Plain mean and standard deviation of one field over `records`.
template <typename T>
Stats StatsOf(const std::vector<RunRecord>& records, T RunRecord::*field) {
  std::vector<double> values;
  for (const RunRecord& r : records) {
    values.push_back(static_cast<double>(r.*field));
  }
  return ComputeStats(values);
}

// Figure 3: search time vs average balanced accuracy vs energy during
// execution (left chart) and inference (right chart), for every system.
Status Fig3(const ExhibitInput& in) {
  // Aggregate over measured cells only; failures are reported below.
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  const std::string failures = RenderFailureSummary(in.sweep);
  if (!failures.empty()) {
    PrintBanner("Non-ok cells (excluded from the charts)");
    std::printf("%s", failures.c_str());
  }

  TablePrinter exec_table({"system", "budget", "bal.acc (mean±std)",
                           "exec kWh", "exec seconds"});
  TablePrinter infer_table(
      {"system", "budget", "bal.acc", "inference kWh/instance"});
  for (const std::string& system : DistinctSystems(records)) {
    for (double budget : DistinctBudgets(records, system)) {
      const auto cell = Filter(records, system, budget);
      const Stats acc =
          Bootstrap(cell, &RunRecord::test_balanced_accuracy, 1);
      exec_table.AddRow(
          {system, StrFormat("%gs", budget),
           StrFormat("%.3f ± %.3f", acc.mean, acc.stddev),
           StrFormat("%.5f",
                     Bootstrap(cell, &RunRecord::execution_kwh, 2).mean),
           StrFormat("%.1f",
                     Bootstrap(cell, &RunRecord::execution_seconds, 3)
                         .mean)});
      infer_table.AddRow(
          {system, StrFormat("%gs", budget), StrFormat("%.3f", acc.mean),
           FormatSci(
               Bootstrap(cell, &RunRecord::inference_kwh_per_instance, 4)
                   .mean)});
    }
  }
  PrintBanner(
      "Figure 3 (left): execution — balanced accuracy vs energy (kWh)");
  exec_table.Print();
  PrintBanner(
      "Figure 3 (right): inference — balanced accuracy vs energy "
      "(kWh per predicted instance)");
  infer_table.Print();

  // §3.2.1-style footnote: execution-energy variability across datasets.
  PrintBanner("Dataset-level execution-energy std at 5min (cf. §3.2.1)");
  TablePrinter std_table({"system", "kWh std across datasets"});
  for (const char* system : {"caml", "autogluon"}) {
    std_table.AddRow(
        {system,
         StrFormat("%.5f", StatsOf(Filter(records, system, 300.0),
                                   &RunRecord::execution_kwh)
                               .stddev)});
  }
  std_table.Print();

  if (in.config.collect_scopes) {
    PrintBanner("Per-operator energy attribution (GREEN_SCOPES=1)");
    const std::string breakdown = RenderEnergyBreakdown(in.sweep);
    std::printf("%s", breakdown.empty()
                          ? "(no scope data collected)\n"
                          : breakdown.c_str());
  }
  return Status::Ok();
}

// Figure 4: total (execution + inference) energy as a function of the
// number of predictions, per system, plus the TabPFN cross-over point —
// the paper finds TabPFN most energy-efficient below ~26k predictions.
// Each system runs at 1 min (a good accuracy/energy point for the
// searchers) and TabPFN at its single dot.
Status Fig4(const ExhibitInput& in) {
  struct SystemCost {
    std::string system;
    double execution_kwh;
    double inference_kwh_per_instance;
  };
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  std::vector<SystemCost> costs;
  for (const std::string& system : DistinctSystems(records)) {
    const auto cell = Filter(records, system,
                             DistinctBudgets(records, system).front());
    costs.push_back(
        {system, Bootstrap(cell, &RunRecord::execution_kwh, 1).mean,
         Bootstrap(cell, &RunRecord::inference_kwh_per_instance, 2).mean});
  }

  PrintBanner(
      "Figure 4: total energy (kWh) vs number of prediction instances");
  std::vector<std::string> headers = {"predictions"};
  for (const auto& cost : costs) headers.push_back(cost.system);
  headers.push_back("cheapest");
  TablePrinter table(headers);
  for (double n = 1e2; n <= 1e9; n *= 10.0) {
    std::vector<std::string> row = {FormatWithCommas(
        static_cast<int64_t>(n))};
    double best = 1e300;
    std::string best_system;
    for (const auto& cost : costs) {
      const double total =
          cost.execution_kwh + n * cost.inference_kwh_per_instance;
      row.push_back(FormatSci(total, 2));
      if (total < best) {
        best = total;
        best_system = cost.system;
      }
    }
    row.push_back(best_system);
    table.AddRow(std::move(row));
  }
  table.Print();

  // Cross-over: the prediction count where TabPFN stops being cheapest
  // against the best searcher (paper: ~26k).
  const SystemCost* tabpfn = nullptr;
  for (const auto& cost : costs) {
    if (cost.system == "tabpfn") tabpfn = &cost;
  }
  if (tabpfn == nullptr) return Status::Ok();
  double crossover = 1e300;
  std::string against;
  for (const auto& cost : costs) {
    if (cost.system == "tabpfn") continue;
    const double d_infer = tabpfn->inference_kwh_per_instance -
                           cost.inference_kwh_per_instance;
    if (d_infer <= 0.0) continue;  // TabPFN never loses to this one.
    const double n_star =
        (cost.execution_kwh - tabpfn->execution_kwh) / d_infer;
    if (n_star > 0.0 && n_star < crossover) {
      crossover = n_star;
      against = cost.system;
    }
  }
  if (!against.empty()) {
    std::printf(
        "\nTabPFN is the most energy-efficient choice below ~%s "
        "predictions (first overtaken by %s; the paper reports ~26k "
        "on its hardware).\n",
        FormatWithCommas(static_cast<int64_t>(crossover)).c_str(),
        against.c_str());
  }
  return Status::Ok();
}

// Figure 5: average balanced accuracy and CPU energy during execution of
// CAML and AutoGluon across 1/2/4/8 cores. The paper's finding: one core
// is Pareto-optimal for (sequential, budget-filling) CAML, while
// AutoGluon's embarrassingly parallel bagging makes multiple cores MORE
// energy-efficient.
Status Fig5(const ExhibitInput& in) {
  // Parallelism sweep multiplies runs by 4; trim the suite a little.
  ExperimentRunner runner(Trimmed(in.config, 6));

  // The core count is Sweep's option-override axis: one sweep per system
  // covers the whole (budget, cores, dataset, rep) grid with the
  // harness's retry/journal/jobs machinery, and run seeds are
  // variant-independent, so every cores= variant of a cell shares its
  // split and search trajectory — the controlled comparison the figure
  // plots.
  std::vector<SweepVariant> variants;
  for (int cores : {1, 2, 4, 8}) {
    SweepVariant variant;
    variant.name = StrFormat("cores=%d", cores);
    variant.cores = cores;
    variants.push_back(std::move(variant));
  }

  for (const char* system : {"caml", "autogluon"}) {
    PrintBanner(StrFormat(
        "Figure 5: %s across CPU cores (accuracy / execution kWh)",
        system));
    GREEN_ASSIGN_OR_RETURN(
        const std::vector<RunRecord> swept,
        runner.Sweep({system}, kPaperBudgets, variants));
    const std::vector<RunRecord> records = OkOnly(swept);
    TablePrinter table({"budget", "cores", "bal.acc", "exec kWh",
                        "exec seconds", "kWh vs 1 core"});
    for (double budget : kPaperBudgets) {
      double one_core_kwh = 0.0;
      for (const SweepVariant& variant : variants) {
        const auto cell = Filter(records, system, budget, variant.name);
        const double kwh = StatsOf(cell, &RunRecord::execution_kwh).mean;
        if (variant.cores == 1) one_core_kwh = kwh;
        table.AddRow(
            {StrFormat("%gs", budget), StrFormat("%d", variant.cores),
             StrFormat("%.3f",
                       StatsOf(cell, &RunRecord::test_balanced_accuracy)
                           .mean),
             StrFormat("%.5f", kwh),
             StrFormat("%.1f",
                       StatsOf(cell, &RunRecord::execution_seconds).mean),
             StrFormat("%.2fx", one_core_kwh > 0 ? kwh / one_core_kwh
                                                 : 0.0)});
      }
    }
    table.Print();
  }
  std::printf(
      "\nPaper shape check: CAML's energy should rise sublinearly with "
      "cores (<= ~2.7x at 8); AutoGluon should get FASTER and no more "
      "expensive with more cores; accuracy should never degrade "
      "materially.\n");
  return Status::Ok();
}

// Figure 6: configuring AutoML systems for inference. CAML is run with
// per-instance inference-time constraints; AutoGluon with its
// refit-for-faster-inference setting. The paper's finding: constraints
// save up to 69% (CAML) / 79% (AutoGluon) of inference energy at a 5-6%
// accuracy cost.
Status Fig6(const ExhibitInput& in) {
  ExperimentRunner runner(Trimmed(in.config, 6));

  // The paper constrains inference to 0.001-0.003 s/instance on its
  // machine; we scale those limits to the simulated machine's throughput
  // (same fraction of a virtual second).
  const std::vector<double> constraints = {0.0, 3e-3, 1.5e-3, 5e-4};

  PrintBanner(
      "Figure 6 (CAML): inference-time constraints vs accuracy & energy");
  // The constraint is Sweep's option-override axis: the unconstrained
  // default variant ("") plus one variant per limit, all through the
  // harness's retry/journal/jobs machinery. Variants share their run
  // seed, so a constrained cell differs from its unconstrained twin only
  // through the constraint itself.
  std::vector<SweepVariant> caml_variants;
  for (double constraint : constraints) {
    SweepVariant variant;
    if (constraint > 0.0) {
      variant.name = StrFormat("constraint=%g", constraint);
      variant.max_inference_seconds_per_row = constraint;
    }
    caml_variants.push_back(std::move(variant));
  }
  GREEN_ASSIGN_OR_RETURN(
      const std::vector<RunRecord> caml_sweep,
      runner.Sweep({"caml"}, kPaperBudgets, caml_variants));
  const std::vector<RunRecord> caml_records = OkOnly(caml_sweep);

  TablePrinter caml_table({"budget", "constraint s/inst", "bal.acc",
                           "inference kWh/inst", "saving vs none"});
  for (double budget : kPaperBudgets) {
    double unconstrained_kwh = -1.0;
    for (size_t c = 0; c < constraints.size(); ++c) {
      const double constraint = constraints[c];
      const auto cell =
          Filter(caml_records, "caml", budget, caml_variants[c].name);
      const double kwh =
          StatsOf(cell, &RunRecord::inference_kwh_per_instance).mean;
      if (constraint == 0.0) unconstrained_kwh = kwh;
      caml_table.AddRow(
          {StrFormat("%gs", budget),
           constraint == 0.0 ? "none" : StrFormat("%.4f", constraint),
           StrFormat("%.3f",
                     StatsOf(cell, &RunRecord::test_balanced_accuracy)
                         .mean),
           FormatSci(kwh),
           constraint == 0.0 || unconstrained_kwh <= 0.0
               ? "-"
               : StrFormat("%.0f%%",
                           100.0 * (1.0 - kwh / unconstrained_kwh))});
    }
  }
  caml_table.Print();

  PrintBanner(
      "Figure 6 (AutoGluon): deployment-optimized refit configuration");
  GREEN_ASSIGN_OR_RETURN(
      const std::vector<RunRecord> gluon_sweep,
      runner.Sweep({"autogluon", "autogluon_refit"}, kPaperBudgets));
  const std::vector<RunRecord> gluon_records = OkOnly(gluon_sweep);
  const std::string failures = RenderFailureSummary(gluon_sweep);
  if (!failures.empty()) std::printf("%s", failures.c_str());

  TablePrinter gluon_table({"budget", "mode", "bal.acc",
                            "inference kWh/inst", "saving vs default"});
  for (double budget : kPaperBudgets) {
    double default_kwh = -1.0;
    for (const std::string mode : {"autogluon", "autogluon_refit"}) {
      const auto cell = Filter(gluon_records, mode, budget);
      const double kwh =
          StatsOf(cell, &RunRecord::inference_kwh_per_instance).mean;
      if (mode == "autogluon") default_kwh = kwh;
      gluon_table.AddRow(
          {StrFormat("%gs", budget),
           mode == "autogluon" ? "default" : "refit (fast inference)",
           StrFormat("%.3f",
                     StatsOf(cell, &RunRecord::test_balanced_accuracy)
                         .mean),
           FormatSci(kwh),
           mode == "autogluon" || default_kwh <= 0.0
               ? "-"
               : StrFormat("%.0f%%", 100.0 * (1.0 - kwh / default_kwh))});
    }
  }
  gluon_table.Print();
  std::printf(
      "\nPaper shape check: tighter constraints / refit reduce inference "
      "energy substantially at a modest accuracy cost; even optimized "
      "AutoGluon stays above unconstrained CAML (it still ensembles).\n");
  return Status::Ok();
}

/// One §2.5 development-stage run (K-Means representatives + BO with
/// median pruning) over the development corpus at the 10 s budget.
Result<AutoMlTunerResult> TuneOnDevCorpus(const ExhibitInput& in,
                                          int top_k, int iterations) {
  AutoMlTunerOptions options;
  options.search_time_seconds = 10.0 * in.config.budget_scale;
  options.bo_iterations = iterations;
  options.top_k_datasets = top_k;
  options.repetitions = FullProfile(in.config) ? 2 : 1;
  options.seed = in.config.seed;
  AutoMlTuner tuner(options);
  EnergyModel energy_model(in.config.machine);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &energy_model, in.config.cores);
  return tuner.Tune(in.dev_corpus, &ctx);
}

// Figure 7: the holistic three-stage picture. Tunes CAML's AutoML
// parameters on the development corpus, then compares CAML(tuned)
// against the other systems on the evaluation suite, reporting
// development, execution, and inference energy plus the amortization
// point (the paper measures 21 kWh and ~885 runs at the 5-minute budget).
Status Fig7(const ExhibitInput& in) {
  const bool full = FullProfile(in.config);
  GREEN_ASSIGN_OR_RETURN(
      const AutoMlTunerResult tuned,
      TuneOnDevCorpus(in, full ? 20 : 5, full ? 300 : 12));
  const double development_kwh =
      tuned.development.kwh() / in.config.budget_scale;

  PrintBanner("Figure 7: development stage (AutoML-parameter tuning)");
  TablePrinter dev_table({"quantity", "value"});
  dev_table.AddRow({"BO trials run", StrFormat("%d", tuned.trials_run)});
  dev_table.AddRow({"trials median-pruned",
                    StrFormat("%d", tuned.trials_pruned)});
  dev_table.AddRow(
      {"representative datasets",
       StrFormat("%zu", tuned.representative_indices.size())});
  dev_table.AddRow(
      {"development energy (kWh)", StrFormat("%.3f", development_kwh)});
  dev_table.AddRow({"best tuning objective",
                    StrFormat("%.3f", tuned.best_objective)});
  dev_table.AddRow(
      {"tuned search space", Join(tuned.best_params.models, ", ")});
  dev_table.Print();

  // Execution + inference: CAML(tuned) vs the field.
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  PrintBanner(
      "Figure 7: accuracy and energy per stage (CAML(tuned) included)");
  TablePrinter table({"system", "budget", "bal.acc", "exec kWh",
                      "inference kWh/inst"});
  for (const std::string& system : DistinctSystems(records)) {
    for (double budget : DistinctBudgets(records, system)) {
      const auto cell = Filter(records, system, budget);
      table.AddRow(
          {system, StrFormat("%gs", budget),
           StrFormat(
               "%.3f",
               Bootstrap(cell, &RunRecord::test_balanced_accuracy, 1)
                   .mean),
           StrFormat("%.5f",
                     Bootstrap(cell, &RunRecord::execution_kwh, 2).mean),
           FormatSci(
               Bootstrap(cell, &RunRecord::inference_kwh_per_instance, 3)
                   .mean)});
    }
  }
  table.Print();

  // Amortization: after how many executions does tuning pay off?
  auto mean_exec = [&](const std::string& system, double budget) {
    return Bootstrap(Filter(records, system, budget),
                     &RunRecord::execution_kwh, 4)
        .mean;
  };
  const double saving_per_run =
      mean_exec("autogluon", 30.0) - mean_exec("caml_tuned", 30.0);
  const double runs = AmortizationRuns(development_kwh, saving_per_run);
  std::printf(
      "\nAmortization: tuning cost %.3f kWh; vs autogluon@30s saving "
      "%.5f kWh/run -> pays off after ~%.0f executions (paper: ~885; "
      "scale differs with the simulation profile).\n",
      development_kwh, saving_per_run, runs);
  return Status::Ok();
}

// Figure 8: the guideline flowchart for picking the most energy-efficient
// AutoML solution, rendered as ASCII, plus a table of representative
// queries and the recommendation each receives.
Status Fig8(const ExhibitInput&) {
  PrintBanner("Figure 8: guideline flowchart");
  std::fputs(RenderGuidelineChart().c_str(), stdout);

  PrintBanner("Guideline applied to representative scenarios");
  TablePrinter table({"scenario", "recommendation", "why"});
  std::vector<std::pair<const char*, GuidelineQuery>> scenarios;
  {
    GuidelineQuery q;
    q.has_development_resources = true;
    q.planned_executions = 5000;
    scenarios.emplace_back("AutoML-as-a-service (5000 runs planned)", q);
  }
  {
    GuidelineQuery q;
    q.search_budget_seconds = 5.0;
    q.num_classes = 2;
    q.gpu_available = true;
    scenarios.emplace_back("ad-hoc binary task, <10s, GPU at hand", q);
  }
  {
    GuidelineQuery q;
    q.search_budget_seconds = 5.0;
    q.num_classes = 355;  // dionis.
    scenarios.emplace_back("ad-hoc 355-class task, <10s", q);
  }
  {
    GuidelineQuery q;
    q.search_budget_seconds = 300.0;
    q.priority = GuidelineQuery::Priority::kFastInference;
    scenarios.emplace_back("fraud scoring: millions of predictions/day",
                           q);
  }
  {
    GuidelineQuery q;
    q.search_budget_seconds = 300.0;
    q.priority = GuidelineQuery::Priority::kAccuracy;
    scenarios.emplace_back("rare medical diagnosis: accuracy first", q);
  }
  {
    GuidelineQuery q;
    q.search_budget_seconds = 60.0;
    q.priority = GuidelineQuery::Priority::kParetoOptimal;
    scenarios.emplace_back("balanced cost/quality deployment", q);
  }
  for (const auto& [name, query] : scenarios) {
    const GuidelineRecommendation rec = RecommendSystem(query);
    table.AddRow({name, rec.system, rec.rationale});
  }
  table.Print();
  return Status::Ok();
}

// Table 3: experiments with and without GPU acceleration. For AutoGluon
// and TabPFN we report GPU-machine / CPU-machine quotients for execution
// and inference (energy and time). Paper: TabPFN inference is ~8x cheaper
// and ~16x faster on the GPU; AutoGluon gets WORSE on both stages because
// its models cannot use the GPU, which idles and burns power.
struct StageNumbers {
  double exec_kwh = 0.0;
  double exec_seconds = 0.0;
  double infer_kwh = 0.0;
  double infer_seconds = 0.0;
};

Result<StageNumbers> MeasureOnMachine(ExperimentRunner* runner,
                                      const MachineModel& machine,
                                      const std::string& system_name) {
  const ExperimentConfig& config = runner->config();
  EnergyModel energy_model(machine);
  StageNumbers total;
  int n = 0;
  for (const Dataset& dataset : runner->suite()) {
    for (int rep = 0; rep < config.repetitions; ++rep) {
      GREEN_ASSIGN_OR_RETURN(
          std::unique_ptr<AutoMlSystem> system,
          runner->MakeSystem(system_name, 300.0));
      VirtualClock clock;
      ExecutionContext ctx(&clock, &energy_model, config.cores);
      Rng rng(HashCombine(config.seed, rep + 3));
      TrainTestData data =
          Materialize(dataset, StratifiedSplit(dataset, 0.66, &rng));
      AutoMlOptions options;
      options.search_budget_seconds = 300.0 * config.budget_scale;
      options.seed = HashCombine(config.seed, rep + 5);
      auto run = system->Fit(data.train, options, &ctx);
      if (!run.ok()) continue;
      EnergyMeter meter(&energy_model);
      meter.Start(clock.Now());
      ctx.SetMeter(&meter);
      const double infer_start = clock.Now();
      if (!run->artifact.Predict(data.test, &ctx).ok()) continue;
      const EnergyReading inference = meter.Stop(clock.Now());
      total.exec_kwh += run->execution.kwh();
      total.exec_seconds += run->actual_seconds;
      total.infer_kwh += inference.kwh();
      total.infer_seconds += clock.Now() - infer_start;
      ++n;
    }
  }
  if (n == 0) return Status::Internal("no successful runs");
  total.exec_kwh /= n;
  total.exec_seconds /= n;
  total.infer_kwh /= n;
  total.infer_seconds /= n;
  return total;
}

Status Table3(const ExhibitInput& in) {
  ExperimentRunner runner(Trimmed(in.config, 5));
  PrintBanner(
      "Table 3: GPU/CPU quotients per metric (green in the paper = "
      "GPU better, i.e. ratio < 1)");
  TablePrinter table({"system", "exec energy", "exec time",
                      "inference energy", "inference time"});
  for (const std::string system : {"autogluon", "tabpfn"}) {
    auto cpu =
        MeasureOnMachine(&runner, MachineModel::XeonGold6132(), system);
    auto gpu = MeasureOnMachine(&runner, MachineModel::GpuNodeT4(), system);
    if (!cpu.ok() || !gpu.ok()) {
      std::fprintf(stderr, "measurement failed for %s\n", system.c_str());
      continue;
    }
    table.AddRow(
        {system, StrFormat("%.2f", gpu->exec_kwh / cpu->exec_kwh),
         StrFormat("%.2f", gpu->exec_seconds / cpu->exec_seconds),
         StrFormat("%.2f", gpu->infer_kwh / cpu->infer_kwh),
         StrFormat("%.2f", gpu->infer_seconds / cpu->infer_seconds)});
  }
  table.Print();
  std::printf(
      "\nPaper values: AutoGluon 1.35 / 1.03 / 2.39 / 1.96 (GPU worse "
      "everywhere); TabPFN 1.37 / 0.96 / 0.13 / 0.07 (GPU slashes "
      "inference).\n");
  return Status::Ok();
}

// Table 4: the cost of one trillion predictions per AutoML system — the
// Meta-scale workload example. For each system we take the
// highest-accuracy configuration from the Fig. 3 sweep and scale its
// per-instance inference energy to 10^12 predictions, converting to kg
// CO2 (0.222 kg/kWh, Germany) and EUR (0.20 EUR/kWh).
Status Table4(const ExhibitInput& in) {
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  struct Row {
    std::string system;
    double kwh;
  };
  std::vector<Row> rows;
  for (const std::string& system : DistinctSystems(records)) {
    // Pick the budget with the highest mean accuracy (the paper uses the
    // best-performing model per system).
    double best_acc = -1.0;
    double best_inference = 0.0;
    for (double budget : DistinctBudgets(records, system)) {
      const auto cell = Filter(records, system, budget);
      const double acc =
          Bootstrap(cell, &RunRecord::test_balanced_accuracy, 1).mean;
      const double inference =
          Bootstrap(cell, &RunRecord::inference_kwh_per_instance, 2).mean;
      if (acc > best_acc) {
        best_acc = acc;
        best_inference = inference;
      }
    }
    rows.push_back({system, best_inference * 1e12});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.kwh > b.kwh; });

  PrintBanner("Table 4: cost of 1 trillion predictions");
  TablePrinter table({"AutoML", "Energy (kWh)", "CO2 (kg)", "Cost (EUR)"});
  const EmissionFactors factors = EmissionFactors::Germany2023();
  for (const Row& row : rows) {
    const ImpactEstimate impact = EstimateImpact(row.kwh, factors);
    table.AddRow({row.system,
                  FormatWithCommas(static_cast<int64_t>(impact.kwh)),
                  FormatWithCommas(static_cast<int64_t>(impact.kg_co2)),
                  FormatWithCommas(static_cast<int64_t>(impact.eur))});
  }
  table.Print();
  std::printf(
      "\nPaper shape: TabPFN by far the most expensive (404,649 kWh), "
      "ensembling systems next, single-model searchers (CAML/TPOT/FLAML) "
      "orders of magnitude cheaper.\n");
  return Status::Ok();
}

// Table 5: the AutoML system parameters the development-stage optimizer
// selects per search budget. Prints the shipped reference configurations
// (Table 5's qualitative structure adapted to simulation scale) and, when
// GREEN_TUNE=1, re-runs the tuner to regenerate them live.
void PrintParams(const std::string& label, const CamlParams& p) {
  PrintBanner(label);
  TablePrinter table({"AutoML system parameter", "value"});
  table.AddRow({"ML hyperparameter search space", Join(p.models, ", ")});
  table.AddRow({"hold-out validation fraction",
                StrFormat("%.2f", p.holdout_fraction)});
  table.AddRow({"evaluation fraction",
                StrFormat("%.2f", p.evaluation_fraction)});
  table.AddRow({"sampling (fraction of instances used)",
                StrFormat("%.2f", p.sampling_fraction)});
  table.AddRow({"refit on train+validation", p.refit ? "yes" : "no"});
  table.AddRow({"random validation split per BO iteration",
                p.random_validation_split ? "yes" : "no"});
  table.AddRow({"incremental training (successive-halving style)",
                p.incremental_training ? "yes" : "no"});
  table.Print();
}

Status Table5(const ExhibitInput& in) {
  const TunedConfigStore store = TunedConfigStore::PaperDefaults();
  for (double budget : kPaperBudgets) {
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

  if (!EnvKnob<bool>(knob::kTune).value_or(false)) {
    std::printf(
        "\n(Set GREEN_TUNE=1 to regenerate the 10s column with a live "
        "tuning run.)\n");
    return Status::Ok();
  }
  MetaCorpusOptions corpus_options;
  corpus_options.num_datasets = 24;
  GREEN_ASSIGN_OR_RETURN(
      const std::vector<Dataset> corpus,
      GenerateMetaCorpus(corpus_options, in.config.profile));
  AutoMlTunerOptions tuner_options;
  tuner_options.search_time_seconds = 10.0 * in.config.budget_scale;
  tuner_options.bo_iterations = 16;
  tuner_options.top_k_datasets = 5;
  tuner_options.repetitions = 1;
  AutoMlTuner tuner(tuner_options);
  EnergyModel energy_model(in.config.machine);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &energy_model, 1);
  auto tuned = tuner.Tune(corpus, &ctx);
  if (tuned.ok()) {
    PrintParams("Live tuner output (10s budget, reduced settings)",
                tuned->best_params);
  }
  return Status::Ok();
}

// Table 6: how often AutoML systems achieve WORSE accuracy with 5 minutes
// than with 1 minute of search — the overfitting count motivating early
// stopping (the paper finds up to 11/39 datasets, mostly small ones).
Status Table6(const ExhibitInput& in) {
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  PrintBanner(
      "Table 6: datasets where 5min accuracy < 1min accuracy "
      "(overfitting / no early stopping)");
  TablePrinter table({"system", "overfitted datasets", "of", "worst set"});
  for (const std::string& system : DistinctSystems(records)) {
    // Mean accuracy per dataset per budget.
    std::map<std::string, std::map<double, std::vector<double>>> per_set;
    for (const RunRecord& r : records) {
      if (r.system != system) continue;
      per_set[r.dataset][r.paper_budget_seconds].push_back(
          r.test_balanced_accuracy);
    }
    int overfitted = 0;
    int total = 0;
    std::string worst;
    double worst_gap = 0.0;
    for (const auto& [dataset, by_budget] : per_set) {
      auto at_1m = by_budget.find(60.0);
      auto at_5m = by_budget.find(300.0);
      if (at_1m == by_budget.end() || at_5m == by_budget.end()) continue;
      ++total;
      const double gap = ComputeStats(at_1m->second).mean -
                         ComputeStats(at_5m->second).mean;
      if (gap > 1e-9) {
        ++overfitted;
        if (gap > worst_gap) {
          worst_gap = gap;
          worst = dataset;
        }
      }
    }
    table.AddRow({system, StrFormat("%d", overfitted),
                  StrFormat("%d", total), worst.empty() ? "-" : worst});
  }
  table.Print();
  std::printf(
      "\nPaper shape: every system overfits on SOME datasets (up to "
      "11/39), concentrated on the small (<3k row) tasks — early "
      "stopping would save that energy outright.\n");
  return Status::Ok();
}

// Table 7: actual execution time (mean ± std) for each specified search
// time — the budget-adherence study. Paper shape: TabPFN constant ~0.29s;
// CAML strictly on budget; FLAML slightly over; AutoGluon ~2x over at
// small budgets; AutoSklearn worst (post-deadline ensemble weighting).
Status Table7(const ExhibitInput& in) {
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  // TPOT / ASKL skip their sub-minimum budgets by design; anything else
  // non-ok here deserves a look.
  const std::string failures = RenderFailureSummary(in.sweep);
  if (!failures.empty()) {
    PrintBanner("Cell outcomes (skips expected at sub-minimum budgets)");
    std::printf("%s", failures.c_str());
  }

  PrintBanner(
      "Table 7: actual execution time (s) for specified search times");
  TablePrinter table({"AutoML", "10s", "30s", "1min", "5min"});
  for (const std::string& system : in.grid.systems) {
    std::vector<std::string> row = {system};
    const bool one_budget = HasNoBudget(system);
    for (double budget : in.grid.budgets) {
      // TabPFN has no search-time parameter: one column, repeated.
      const auto cell = Filter(
          records, system,
          one_budget ? DistinctBudgets(records, system).front() : budget);
      if (cell.empty()) {
        row.push_back("-");
        continue;
      }
      const Stats s = StatsOf(cell, &RunRecord::execution_seconds);
      row.push_back(StrFormat("%.2f ± %.2f", s.mean, s.stddev));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nPaper row order (30s column): TabPFN 0.29 << CAML 30.9 <= "
      "FLAML 33.3 < AutoGluon 51.2 < ASKL2 128.7 < ASKL1 176.5.\n");
  return Status::Ok();
}

/// Tables 8 and 9: one development-stage tuning run per row, the rows
/// varying the top-k representative datasets or the BO iterations.
struct TuningRow {
  int top_k;
  int iterations;
};

void PrintTuningTable(const ExhibitInput& in, const std::string& title,
                      const char* axis, bool by_top_k,
                      const std::vector<TuningRow>& rows) {
  PrintBanner(title);
  TablePrinter table({axis, "mean bal.acc on tuning tasks", "energy (kWh)",
                      "virtual time (h)"});
  for (const TuningRow& row : rows) {
    const int label = by_top_k ? row.top_k : row.iterations;
    auto result = TuneOnDevCorpus(in, row.top_k, row.iterations);
    if (!result.ok()) {
      std::fprintf(stderr, "tuning failed for %s=%d\n", axis, label);
      continue;
    }
    table.AddRow(
        {StrFormat("%d", label),
         StrFormat("%.2f%%", 100.0 * result->best_mean_accuracy),
         StrFormat("%.3f",
                   result->development.kwh() / in.config.budget_scale),
         StrFormat("%.2f", result->development_seconds /
                               in.config.budget_scale / 3600.0)});
  }
  table.Print();
}

// Table 8: tuning quality/cost for different numbers of top-k
// representative datasets (paper: k in {10, 20, 40} at 300 BO iterations;
// more datasets generalize better but cost linearly more energy/time).
// The fast profile scales k and the iteration count down proportionally.
Status Table8(const ExhibitInput& in) {
  const bool full = FullProfile(in.config);
  const int iterations = full ? 300 : 8;
  std::vector<TuningRow> rows;
  for (int k : full ? std::vector<int>{10, 20, 40}
                    : std::vector<int>{2, 4, 8}) {
    rows.push_back({k, iterations});
  }
  PrintTuningTable(
      in,
      StrFormat("Table 8: tuning with different top-k representative "
                "datasets (10s budget, %d BO iterations)",
                iterations),
      "top-k datasets", /*by_top_k=*/true, rows);
  std::printf(
      "\nPaper shape: accuracy rises then saturates with k while energy "
      "and time grow roughly linearly — k=20 was the paper's "
      "accuracy/cost sweet spot (68.6%% -> 73.5%% from k=10 to 20, flat "
      "to k=40 at double the energy).\n");
  return Status::Ok();
}

// Table 9: tuning quality/cost for different numbers of BO iterations
// (paper: {75, 150, 300, 600} at top-20 datasets; 600 OVERFITS the tuning
// datasets and scores worse than 300 while costing the most).
Status Table9(const ExhibitInput& in) {
  const bool full = FullProfile(in.config);
  const int top_k = full ? 20 : 4;
  std::vector<TuningRow> rows;
  for (int iterations : full ? std::vector<int>{75, 150, 300, 600}
                             : std::vector<int>{4, 8, 16, 32}) {
    rows.push_back({top_k, iterations});
  }
  PrintTuningTable(
      in,
      StrFormat("Table 9: tuning with different BO iteration counts (10s "
                "budget, top-%d datasets)",
                top_k),
      "BO iterations", /*by_top_k=*/false, rows);
  std::printf(
      "\nPaper shape: energy grows linearly with iterations; accuracy "
      "peaks at an intermediate count (300) — the largest budget (600) "
      "overfits the tuning datasets and scores slightly WORSE.\n");
  return Status::Ok();
}

// Ablation (§3.8 follow-up): the paper observes that systems overfit on
// small datasets when run for 5 min instead of 1 min and argues "early
// stopping should be enforced to save energy". This exhibit quantifies
// the claim with CAML's early-stopping extension: patience sweep vs
// energy spent and accuracy reached, plus the CO2-aware search objective.
struct CamlCell {
  double accuracy = 0.0;
  double exec_kwh = 0.0;
  double exec_seconds = 0.0;
  double inference_flops = 0.0;
};

CamlCell MeasureCaml(const CamlParams& params, const ExperimentRunner& runner,
                     double budget) {
  const ExperimentConfig& config = runner.config();
  EnergyModel energy_model(config.machine);
  std::vector<double> accs;
  std::vector<double> kwhs;
  std::vector<double> secs;
  std::vector<double> flops;
  for (const Dataset& dataset : runner.suite()) {
    for (int rep = 0; rep < config.repetitions; ++rep) {
      CamlSystem system(params, "caml_ablation");
      VirtualClock clock;
      ExecutionContext ctx(&clock, &energy_model, config.cores);
      Rng rng(HashCombine(config.seed, rep * 31 + 1));
      TrainTestData data =
          Materialize(dataset, StratifiedSplit(dataset, 0.66, &rng));
      AutoMlOptions options;
      options.search_budget_seconds = budget * config.budget_scale;
      options.seed = HashCombine(config.seed, rep + 71);
      auto run = system.Fit(data.train, options, &ctx);
      if (!run.ok()) continue;
      auto preds = run->artifact.Predict(data.test, &ctx);
      if (!preds.ok()) continue;
      accs.push_back(BalancedAccuracy(data.test.labels(), preds.value(),
                                      data.test.num_classes()));
      kwhs.push_back(run->execution.kwh() / config.budget_scale);
      secs.push_back(run->actual_seconds / config.budget_scale);
      flops.push_back(
          run->artifact.InferenceFlopsPerRow(dataset.num_features()));
    }
  }
  return CamlCell{ComputeStats(accs).mean, ComputeStats(kwhs).mean,
                  ComputeStats(secs).mean, ComputeStats(flops).mean};
}

Status AblationEarlyStopping(const ExhibitInput& in) {
  const ExperimentRunner runner(Trimmed(in.config, 6));

  PrintBanner("Ablation A1: early-stopping patience (CAML, 5min budget)");
  TablePrinter es_table({"patience", "bal.acc", "exec kWh",
                         "exec seconds", "energy saved"});
  double baseline_kwh = 0.0;
  for (int patience : {0, 20, 10, 5}) {
    CamlParams params;
    params.early_stopping_patience = patience;
    // 5 min: the budget where overfitting bites.
    const CamlCell cell = MeasureCaml(params, runner, 300.0);
    if (patience == 0) baseline_kwh = cell.exec_kwh;
    es_table.AddRow(
        {patience == 0 ? "off" : StrFormat("%d", patience),
         StrFormat("%.3f", cell.accuracy),
         StrFormat("%.5f", cell.exec_kwh),
         StrFormat("%.1f", cell.exec_seconds),
         patience == 0 || baseline_kwh <= 0.0
             ? "-"
             : StrFormat("%.0f%%",
                         100.0 * (1.0 - cell.exec_kwh / baseline_kwh))});
  }
  es_table.Print();

  PrintBanner(
      "Ablation A2: CO2-aware objective weight (CAML, 1min budget)");
  TablePrinter ew_table({"energy weight", "bal.acc",
                         "inference FLOPs/row", "vs weight 0"});
  double baseline_flops = 0.0;
  for (double weight : {0.0, 0.2, 0.5, 1.0}) {
    CamlParams params;
    params.energy_weight = weight;
    const CamlCell cell = MeasureCaml(params, runner, 60.0);
    if (weight == 0.0) baseline_flops = cell.inference_flops;
    ew_table.AddRow(
        {StrFormat("%.1f", weight), StrFormat("%.3f", cell.accuracy),
         StrFormat("%.0f", cell.inference_flops),
         weight == 0.0 || baseline_flops <= 0.0
             ? "-"
             : StrFormat("%.2fx",
                         cell.inference_flops / baseline_flops)});
  }
  ew_table.Print();
  std::printf(
      "\nExpected shapes: early stopping trims execution energy with "
      "little accuracy loss (the search had converged); growing the "
      "CO2 weight pushes the chosen pipeline toward cheaper inference "
      "at a mild accuracy cost.\n");
  return Status::Ok();
}

// Ablation: the value of guided search. The paper's premise (its §1 and
// the amortization argument of §3.7) is that the development investment
// behind advanced search strategies pays off against the naive baseline
// of random search [Bergstra & Bengio]. Here the baseline runs in the
// SAME harness with the SAME search space and budget policy, isolating
// the strategy itself: random sampling vs BO (CAML) vs BO + successive
// halving + tuned AutoML parameters (CAML(tuned)).
Status AblationSearchStrategies(const ExhibitInput& in) {
  const std::vector<RunRecord> records = OkOnly(in.sweep);
  PrintBanner(
      "Ablation A3: search strategy value at equal budget "
      "(random -> BO -> BO+SH+tuned)");
  TablePrinter table({"budget", "system", "bal.acc (mean±std)",
                      "exec kWh", "pipelines evaluated"});
  for (double budget : in.grid.budgets) {
    for (const std::string& system : in.grid.systems) {
      const auto cell = Filter(records, system, budget);
      if (cell.empty()) continue;
      const Stats acc =
          Bootstrap(cell, &RunRecord::test_balanced_accuracy, 1);
      table.AddRow(
          {StrFormat("%gs", budget), system,
           StrFormat("%.3f ± %.3f", acc.mean, acc.stddev),
           StrFormat("%.5f",
                     Bootstrap(cell, &RunRecord::execution_kwh, 2).mean),
           StrFormat("%.1f",
                     StatsOf(cell, &RunRecord::pipelines_evaluated).mean)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: from ~30s upward, accuracy orders as random <= "
      "BO <= BO+tuned at equal budget and energy — the gap is what the "
      "development-stage investment buys (Fig. 7). At the tiniest "
      "budgets random sampling can WIN: BO's random initialization eats "
      "the whole budget before the surrogate contributes, one more "
      "reason the paper's guideline sends <10s users to TabPFN/CAML "
      "rather than heavier search.\n");
  return Status::Ok();
}

struct Exhibit {
  const char* name;
  Status (*render)(const ExhibitInput&);
  Grid grid = {};
  bool dev_corpus = false;
};

const std::vector<Exhibit>& Exhibits() {
  static const std::vector<Exhibit> exhibits = {
      {"fig3_execution_inference", Fig3,
       {{"tabpfn", "caml", "flaml", "autogluon", "autosklearn1",
         "autosklearn2", "tpot"},
        kPaperBudgets}},
      {"fig4_prediction_scale", Fig4,
       {{"tabpfn", "caml", "flaml", "autogluon", "autosklearn1"}, {60.0}}},
      {"fig5_parallelism", Fig5},
      {"fig6_inference_constraints", Fig6},
      {"fig7_development_stage", Fig7,
       {{"tabpfn", "caml", "caml_tuned", "flaml", "autogluon"},
        kPaperBudgets},
       /*dev_corpus=*/true},
      {"fig8_guideline", Fig8},
      {"table3_gpu", Table3},
      {"table4_trillion", Table4,
       {{"tabpfn", "autogluon", "autosklearn1", "autosklearn2", "caml",
         "tpot", "flaml"},
        kPaperBudgets}},
      {"table5_tuned_params", Table5},
      {"table6_overfitting", Table6,
       {{"caml", "flaml", "autogluon", "autosklearn1", "tpot"},
        {60.0, 300.0}}},
      {"table7_budget_adherence", Table7,
       {{"tabpfn", "caml", "caml_tuned", "flaml", "autogluon", "tpot",
         "autosklearn2", "autosklearn1"},
        kPaperBudgets}},
      {"table8_topk_datasets", Table8, {}, /*dev_corpus=*/true},
      {"table9_bo_iterations", Table9, {}, /*dev_corpus=*/true},
      {"ablation_early_stopping", AblationEarlyStopping},
      {"ablation_search_strategies", AblationSearchStrategies,
       {{"random_search", "caml", "caml_tuned"}, kPaperBudgets}},
  };
  return exhibits;
}

/// `grid`'s cells of a sweep over a superset grid, in the (system,
/// budget, dataset, repetition) order a sweep of `grid` enumerates. The
/// sweep runs a no-budget system (HasNoBudget: TabPFN) once, at its first
/// budget, whatever the grid; its cells are stamped with `grid`'s first
/// budget, as a sweep of `grid` would have recorded them.
std::vector<RunRecord> CellsOf(const std::vector<RunRecord>& shared,
                               const Grid& grid) {
  std::vector<RunRecord> cells;
  for (const std::string& system : grid.systems) {
    const bool one_budget = HasNoBudget(system);
    for (double budget : grid.budgets) {
      for (const RunRecord& record : shared) {
        if (record.system != system) continue;
        if (one_budget) {
          cells.push_back(record);
          cells.back().paper_budget_seconds = budget;
        } else if (record.paper_budget_seconds == budget) {
          cells.push_back(record);
        }
      }
      if (one_budget) break;
    }
  }
  return cells;
}

/// The union of the selected exhibits' grids, as one sweep runs it:
/// systems in order of first appearance, budgets ascending.
Grid UnionGrid(const std::vector<const Exhibit*>& selected) {
  Grid grid;
  for (const Exhibit* e : selected) {
    for (const std::string& system : e->grid.systems) {
      if (std::find(grid.systems.begin(), grid.systems.end(), system) ==
          grid.systems.end()) {
        grid.systems.push_back(system);
      }
    }
    grid.budgets.insert(grid.budgets.end(), e->grid.budgets.begin(),
                        e->grid.budgets.end());
  }
  std::sort(grid.budgets.begin(), grid.budgets.end());
  grid.budgets.erase(std::unique(grid.budgets.begin(), grid.budgets.end()),
                     grid.budgets.end());
  return grid;
}

/// The development corpus of fig7 and tables 8 and 9: the binary
/// meta-corpus, capped at 400 rows per task outside the full profile.
Result<std::vector<Dataset>> DevCorpus(const ExperimentConfig& config) {
  const bool full = FullProfile(config);
  MetaCorpusOptions options;
  options.num_datasets = full ? 124 : 24;
  SimulationProfile profile = config.profile;
  if (!full) profile.max_rows = 400;
  return GenerateMetaCorpus(options, profile);
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "paper: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  const std::vector<Exhibit>& all = Exhibits();
  std::vector<const Exhibit*> selected;
  for (int i = 1; i < argc; ++i) {
    auto it = std::find_if(all.begin(), all.end(), [&](const Exhibit& e) {
      return std::strcmp(e.name, argv[i]) == 0;
    });
    if (it == all.end()) {
      std::fprintf(stderr,
                   "paper: unknown exhibit \"%s\"; the exhibits are:\n",
                   argv[i]);
      for (const Exhibit& e : all) std::fprintf(stderr, "  %s\n", e.name);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (argc == 1) {
    for (const Exhibit& e : all) selected.push_back(&e);
  }

  const ExperimentConfig config = ExperimentConfig::FromEnv();
  const Grid grid = UnionGrid(selected);
  std::vector<RunRecord> shared;
  if (!grid.systems.empty()) {
    ExperimentRunner runner(config);
    auto sweep = runner.Sweep(grid.systems, grid.budgets);
    if (!sweep.ok()) return Fail("sweep", sweep.status());
    shared = std::move(*sweep);
  }
  std::vector<Dataset> dev_corpus;
  if (std::any_of(selected.begin(), selected.end(),
                  [](const Exhibit* e) { return e->dev_corpus; })) {
    auto corpus = DevCorpus(config);
    if (!corpus.ok()) return Fail("development corpus", corpus.status());
    dev_corpus = std::move(*corpus);
  }

  for (const Exhibit* e : selected) {
    const std::vector<RunRecord> cells = CellsOf(shared, e->grid);
    const Status status = e->render({config, e->grid, cells, dev_corpus});
    if (!status.ok()) return Fail(e->name, status);
  }
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
