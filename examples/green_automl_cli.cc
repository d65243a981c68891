// Command-line front end: run any of the library's AutoML systems on a
// CSV file (or a built-in demo task) and print a holistic energy report,
// optionally exporting the raw measurement as JSON. Also runs
// fault-tolerant suite sweeps (--sweep), sharded sweeps and their merge
// (--shard, --merge-journals), and serving trace replays (--serve).
//
// `green_automl_cli --help` prints every flag and GREEN_* variable; the
// same table is in README.md. Flags override the environment.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/bench_util/table_printer.h"
#include "green/common/knobs.h"
#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/energy/co2.h"
#include "green/serve/inference_server.h"
#include "green/serve/request_stream.h"
#include "green/table/csv.h"
#include "green/table/split.h"
#include "green/table/task_type.h"

namespace green {
namespace {

// CLI-only rows; the shared GREEN_* rows are knob::kLibrary. Defaults
// are written where each value is read.
using enum KnobType;
const std::string kTaskNames = EnumChoices(TaskTypeName, 3);
const std::string kTraceKindNames = EnumChoices(TraceKindName, 3);
constexpr Knob kSystem{.flag = "--system", .choices = "NAME",
    .help = "AutoML system: tabpfn, caml, caml_tuned, flaml, autogluon, "
            "autogluon_refit, autosklearn1, autosklearn2, tpot, "
            "random_search or autopt"};
constexpr Knob kBudget{.flag = "--budget", .type = kDouble,
    .max = HUGE_VAL, .reject_out_of_range = true,
    .help = "Search budget in paper seconds, also per --budgets entry"};
constexpr Knob kCsv{.flag = "--csv", .choices = "PATH",
    .help = "CSV dataset (last column label, or target for regression)"};
const Knob kTask{.flag = "--task", .type = kEnum,
    .choices = kTaskNames.c_str(),
    .help = "Task of the built-in demo dataset used without --csv"};
constexpr Knob kCores{.flag = "--cores", .type = kInt, .min = 1,
    .max = 1024, .help = "Simulated CPU cores"};
constexpr Knob kJson{.flag = "--json", .choices = "PATH",
    .help = "Append the run's record as a JSON line; --sweep overwrites PATH"};
constexpr Knob kSweep{.flag = "--sweep", .choices = "SYS1,SYS2,...",
    .help = "Fault-tolerant sweep of these systems over the AMLB subset"};
constexpr Knob kBudgets{.flag = "--budgets", .choices = "B1,B2,...",
    .help = "Paper budgets of a sweep"};
constexpr Knob kCompactJournal{.flag = "--compact-journal",
    .choices = "PATH",
    .help = "Keep only the last record per cell of a journal, then exit"};
constexpr Knob kMergeJournals{.flag = "--merge-journals",
    .choices = "S0 S1 ... -o OUT",
    .help = "Merge per-shard journals in canonical order, then exit"};
constexpr Knob kServe{.flag = "--serve", .type = kSwitch,
    .help = "Fit once, then replay a request trace through the server"};
const Knob kTraceKind{.flag = "--trace", .type = kEnum,
    .choices = kTraceKindNames.c_str(), .help = "Synthetic trace shape"};
constexpr Knob kTraceFile{.flag = "--trace-file", .choices = "PATH",
    .help = "Replay arrivals from a CSV (arrival_seconds[,row]) instead"};
constexpr Knob kRps{.flag = "--rps", .type = kDouble, .max = 10000,
    .help = "Mean synthetic arrival rate"};
constexpr Knob kTraceSeconds{.flag = "--trace-seconds", .type = kDouble,
    .max = 3600, .help = "Synthetic trace length"};
constexpr Knob kHelp{.flag = "--help", .type = kSwitch,
    .help = "Print this table and exit"};

constexpr const Knob* kCliOnly[] = {
    &kSystem, &kBudget, &kCsv, &kTask, &kCores, &kJson, &kSweep, &kBudgets,
    &kCompactJournal, &kMergeJournals, &kServe, &kTraceKind, &kTraceFile,
    &kRps, &kTraceSeconds, &kHelp};

/// Runs a fault-tolerant suite sweep (--sweep mode): every cell gets a
/// record, failures are retried and classified, completed cells land in
/// the journal so an interrupted sweep restarts with --resume.
int SweepMain(const KnobValues& knobs, const ExperimentConfig& config) {
  std::vector<std::string> systems;
  for (const std::string& s : Split(*knobs.Get<std::string>(kSweep), ',')) {
    const std::string name(Trim(s));
    if (!name.empty()) systems.push_back(name);
  }
  if (systems.empty()) {
    std::fprintf(stderr, "--sweep needs at least one system name\n");
    return 2;
  }
  std::vector<double> budgets;
  for (const std::string& b :
       Split(knobs.Get<std::string>(kBudgets).value_or(""), ',')) {
    const std::string_view text = Trim(b);
    if (text.empty()) continue;
    Result<KnobValue> budget = ParseKnob(kBudget, text);
    if (!budget.ok()) {
      std::fprintf(stderr, "--budgets: %s\n",
                   budget.status().message().c_str());
      return 2;
    }
    budgets.push_back(std::get<double>(*budget));
  }
  if (budgets.empty()) budgets = {10.0, 30.0, 60.0, 300.0};

  ExperimentRunner runner(config);
  auto records = runner.Sweep(systems, budgets);
  if (!records.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  if (runner.last_sweep_resumed_cells() > 0) {
    std::printf("resumed %zu cell(s) from the journal\n",
                runner.last_sweep_resumed_cells());
  }
  if (runner.last_sweep_resumed_from_incomplete_journal()) {
    std::printf(
        "note: the journal was marked incomplete by a previous run; "
        "cells it was missing were re-run\n");
  }

  // Lost journal appends never surface as records; hand them to the
  // summary as their own fault-site row so a chaos sweep accounts for
  // every injection, not just the cell-failing ones.
  const std::string failures = RenderFailureSummary(
      *records,
      {{"journal.append", runner.last_sweep_journal_append_failures()}});
  if (!failures.empty()) std::printf("%s", failures.c_str());
  const std::string breakdown = RenderEnergyBreakdown(*records);
  if (!breakdown.empty()) std::printf("%s", breakdown.c_str());
  const std::vector<RunRecord> measured = OkOnly(*records);
  if (config.shard_count > 1) {
    std::printf("sweep complete (shard %d/%d): %zu/%zu owned cells "
                "measured ok\n",
                config.shard_index, config.shard_count, measured.size(),
                records->size());
  } else {
    std::printf("sweep complete: %zu/%zu cells measured ok\n",
                measured.size(), records->size());
  }
  if (runner.last_sweep_journal_append_failures() > 0) {
    std::fprintf(
        stderr,
        "warning: %zu record(s) could not be journaled even after "
        "retry; %s is NOT a complete transcript (marked incomplete)\n",
        runner.last_sweep_journal_append_failures(),
        config.journal_path.c_str());
  }

  if (std::optional<std::string> json_path = knobs.Get<std::string>(kJson)) {
    Status st = WriteRecordsJsonl(*records, *json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "json export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("records written   : %s (%zu)\n", json_path->c_str(),
                records->size());
  }
  return measured.empty() ? 1 : 0;
}

/// Runs --serve mode: fit one artifact, build its degrade ladder, replay
/// an open-loop trace through the inference server, and report latency,
/// outcome, and energy-per-request numbers (plus the serving scope
/// subtree under --breakdown).
int ServeMain(const std::string& system_name, double budget,
              const Dataset& dataset, ExperimentRunner& runner,
              const KnobValues& knobs) {
  const ExperimentConfig& config = runner.config();
  ServePolicy policy;
  policy.Load(knobs);
  TraceSpec trace_spec{.kind = TraceSpec::Kind::kBurst,
                       .duration_seconds = 30.0,
                       .rate_rps = 20.0,
                       .seed = config.seed};
  knobs.Assign(kTraceKind, &trace_spec.kind);
  knobs.Assign(kRps, &trace_spec.rate_rps);
  knobs.Assign(kTraceSeconds, &trace_spec.duration_seconds);
  const std::string trace_file =
      knobs.Get<std::string>(kTraceFile).value_or("");
  Rng split_rng(1);
  TrainTestData data =
      Materialize(dataset, SplitForTask(dataset, 0.66, &split_rng));
  EnergyModel energy_model(config.machine);

  // Fit once, off the serving path — development happens before deploy.
  auto system = runner.MakeSystem(system_name, budget);
  if (!system.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 system.status().ToString().c_str());
    return 2;
  }
  VirtualClock fit_clock;
  ExecutionContext fit_ctx(&fit_clock, &energy_model, config.cores);
  AutoMlOptions options;
  options.search_budget_seconds = budget * config.budget_scale;
  options.cores = config.cores;
  options.seed = config.seed;
  auto run = (*system)->Fit(data.train, options, &fit_ctx);
  if (!run.ok()) {
    std::fprintf(stderr, "serve: fit failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }

  auto ladder =
      ArtifactLadder::Build(run->artifact, data.train, &energy_model);
  if (!ladder.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 ladder.status().ToString().c_str());
    return 1;
  }

  std::vector<ServeRequest> trace;
  if (!trace_file.empty()) {
    auto loaded = LoadTraceCsv(trace_file, data.test.num_rows());
    if (!loaded.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
  } else {
    trace = GenerateTrace(trace_spec, data.test.num_rows());
  }

  const FaultInjector faults =
      FaultInjector::Lenient(config.faults, config.seed);
  InferenceServer server(std::move(ladder).value(), data.test,
                         &energy_model, policy, &faults, config.cores);
  auto report = server.Replay(trace);
  if (!report.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const Status conserved = report->CheckConservation();
  if (!conserved.ok()) {
    std::fprintf(stderr, "serve: conservation check FAILED: %s\n",
                 conserved.ToString().c_str());
    return 1;
  }

  std::printf("\nserving           : %s artifact, %zu-tier ladder (",
              system_name.c_str(), server.ladder().size());
  for (size_t t = 0; t < server.ladder().size(); ++t) {
    std::printf("%s%s", t > 0 ? " -> " : "",
                server.ladder().tier(t).name.c_str());
  }
  std::printf(")\n");
  std::printf("trace             : %s (%zu requests over %.1f s)\n",
              trace_file.empty() ? TraceKindName(trace_spec.kind)
                                 : trace_file.c_str(),
              trace.size(), report->duration_seconds);
  std::printf(
      "policy            : queue=%zu batch=%zu delay=%.1fms "
      "deadline=%.1fms slo=%.3gJ on_deadline=%s shed=%s\n",
      policy.queue_capacity, policy.max_batch,
      policy.batch_delay_seconds * 1e3, policy.deadline_seconds * 1e3,
      policy.energy_slo_joules,
      KnobChoice(knob::kServePolicy, static_cast<long>(policy.on_deadline))
          .c_str(),
      KnobChoice(knob::kServeShed, static_cast<long>(policy.shed)).c_str());
  std::printf("outcomes          : %zu completed, %zu degraded, %zu "
              "rejected, %zu deadline (of %zu; %zu batches)\n",
              report->completed, report->degraded, report->rejected,
              report->deadline_exceeded, report->arrived,
              report->batches);
  std::printf("latency           : p50 %.2f ms, p95 %.2f ms, p99 %.2f "
              "ms (virtual)\n",
              report->LatencyPercentile(0.50) * 1e3,
              report->LatencyPercentile(0.95) * 1e3,
              report->LatencyPercentile(0.99) * 1e3);
  std::printf("energy            : %.4g J dynamic total, %.4g J per "
              "request, %.3e kWh serving stage\n",
              report->total_joules, report->JoulesPerRequest(),
              report->reading.kwh());

  if (config.collect_scopes) {
    TablePrinter table({"scope", "joules", "share", "charges"});
    double total_joules = 0.0;
    for (const auto& [path, charge] : report->reading.scopes) {
      total_joules += charge.joules;
    }
    for (const auto& [path, charge] : report->reading.scopes) {
      table.AddRow(
          {"serving/" + path, StrFormat("%.6g", charge.joules),
           StrFormat("%.1f%%", total_joules > 0.0
                                   ? 100.0 * charge.joules / total_joules
                                   : 0.0),
           StrFormat("%llu",
                     static_cast<unsigned long long>(charge.charges))});
    }
    std::printf("\n%s", table.Render().c_str());
  }
  std::printf("conservation      : ok (every request reached exactly one "
              "terminal outcome)\n");
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<const Knob*> rows(std::begin(kCliOnly), std::end(kCliOnly));
  rows.insert(rows.end(), std::begin(knob::kLibrary),
              std::end(knob::kLibrary));
  KnobValues knobs = KnobValues::FromEnv();
  std::vector<std::string> merge_paths;
  std::string merge_out;
  bool merge_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == kMergeJournals.flag) {
      merge_mode = true;
      while (i + 1 < argc && std::string_view(argv[i + 1]) != "-o") {
        merge_paths.push_back(argv[++i]);
      }
      if (i + 1 < argc) ++i;  // Consume "-o".
      if (i + 1 < argc) merge_out = argv[++i];
      continue;
    }
    const auto row = std::find_if(rows.begin(), rows.end(), [&](auto* k) {
      return k->flag != nullptr && arg == k->flag;
    });
    if (row == rows.end()) {
      std::fprintf(stderr, "unknown flag: %s (see --help)\n", argv[i]);
      return 2;
    }
    const Knob* knob = *row;
    if (knob == &kHelp) {
      std::printf("%s", RenderKnobTable(rows).c_str());
      return 0;
    }
    const char* value = "1";
    if (knob->type != KnobType::kSwitch) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: needs a value\n", knob->flag);
        return 2;
      }
      value = argv[++i];
    }
    const Status set = knobs.Set(*knob, value);
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.message().c_str());
      return 2;
    }
  }

  if (merge_mode) {
    if (merge_paths.empty() || merge_out.empty()) {
      std::fprintf(stderr,
                   "--merge-journals needs shard journal paths and "
                   "-o OUT.jsonl\n");
      return 2;
    }
    auto merged = MergeShardJournals(merge_paths, merge_out);
    if (!merged.ok()) {
      std::fprintf(stderr, "merge failed: %s\n",
                   merged.status().ToString().c_str());
      return 1;
    }
    std::printf("%zu shard journal(s) merged into %s (%zu records)\n",
                merge_paths.size(), merge_out.c_str(), *merged);
    return 0;
  }

  if (std::optional<std::string> compact_path =
          knobs.Get<std::string>(kCompactJournal)) {
    auto removed = CompactJournalJsonl(*compact_path);
    if (!removed.ok()) {
      std::fprintf(stderr, "compaction failed: %s\n",
                   removed.status().ToString().c_str());
      return 1;
    }
    std::printf("journal %s compacted: %zu superseded record(s) removed\n",
                compact_path->c_str(), *removed);
    return 0;
  }

  ExperimentConfig config;
  config.Load(knobs);
  knobs.Assign(kCores, &config.cores);
  if (knobs.Get<std::string>(kSweep)) return SweepMain(knobs, config);
  config.dataset_limit = 1;  // The runner's suite is unused here.
  ExperimentRunner runner(config);

  const std::string system = knobs.Get<std::string>(kSystem).value_or("caml");
  const double budget = knobs.Get<double>(kBudget).value_or(30.0);
  const TaskType task =
      knobs.Get<TaskType>(kTask).value_or(TaskType::kMulticlass);
  Dataset dataset;
  if (std::optional<std::string> csv_path = knobs.Get<std::string>(kCsv)) {
    auto loaded = ReadCsv(*csv_path, *csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", csv_path->c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  } else if (task == TaskType::kRegression) {
    SyntheticRegressionSpec spec;
    spec.name = "demo_regression";
    spec.num_rows = 500;
    spec.num_features = 12;
    spec.num_informative = 7;
    spec.num_categorical = 3;
    spec.noise = 0.4;
    spec.seed = 4242;
    dataset = GenerateSyntheticRegression(spec).value();
    std::printf(
        "(no --csv given: using a built-in synthetic regression task)\n");
  } else {
    SyntheticSpec spec;
    spec.name = "demo";
    spec.num_rows = 500;
    spec.num_features = 12;
    spec.num_informative = 7;
    spec.num_categorical = 3;
    spec.num_classes = task == TaskType::kBinary ? 2 : 3;
    spec.separation = 2.2;
    spec.label_noise = 0.05;
    spec.seed = 4242;
    dataset = GenerateSynthetic(spec).value();
    std::printf("(no --csv given: using a built-in synthetic demo task)\n");
  }

  if (knobs.Get<bool>(kServe).value_or(false)) {
    return ServeMain(system, budget, dataset, runner, knobs);
  }

  // One full measured run through the same harness the benches use.
  auto record = runner.RunOne(system, dataset, budget, 0);
  if (!record.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 record.status().ToString().c_str());
    return 1;
  }

  std::printf("\nsystem            : %s\n", record->system.c_str());
  if (dataset.task() == TaskType::kRegression) {
    std::printf("dataset           : %s (%zu rows x %zu features, "
                "regression)\n",
                dataset.name().c_str(), dataset.num_rows(),
                dataset.num_features());
  } else {
    std::printf("dataset           : %s (%zu rows x %zu features, %d "
                "classes)\n",
                dataset.name().c_str(), dataset.num_rows(),
                dataset.num_features(), dataset.num_classes());
  }
  std::printf("search budget     : %.0f s (paper scale)\n", budget);
  if (record->task == TaskType::kRegression) {
    std::printf("test rmse         : %.3f\n", record->test_metric);
  } else {
    std::printf("balanced accuracy : %.3f\n",
                record->test_balanced_accuracy);
  }
  std::printf("execution         : %.1f s, %.5f kWh\n",
              record->execution_seconds, record->execution_kwh);
  std::printf("inference         : %.3e kWh per instance\n",
              record->inference_kwh_per_instance);
  std::printf("ensemble size     : %zu pipeline(s), %d evaluated\n",
              record->num_pipelines, record->pipelines_evaluated);

  if (config.collect_scopes) {
    const std::string table = RenderEnergyBreakdown({*record});
    if (!table.empty()) std::printf("\n%s", table.c_str());
  }

  const ImpactEstimate yearly = EstimateImpact(
      record->execution_kwh +
          record->inference_kwh_per_instance * 1e6 * 365.0,
      EmissionFactors::Germany2023());
  std::printf("at 1M pred/day    : %.1f kWh/year = %.1f kg CO2/year = "
              "%.2f EUR/year\n",
              yearly.kwh, yearly.kg_co2, yearly.eur);

  if (std::optional<std::string> json_path = knobs.Get<std::string>(kJson)) {
    Status st = AppendRecordJsonl(*record, *json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "json export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("record appended   : %s\n", json_path->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
