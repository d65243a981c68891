// Serving-layer bench: replay diurnal and bursty open-loop request
// traces against one fitted artifact's degrade ladder under a matrix of
// serving policies. Reports tail latency (p50/p95/p99, virtual ms),
// outcome counts (completed / degraded / rejected / deadline), and
// Joules per request for every (trace, policy) cell, and enforces the
// request-conservation invariant on each cell.
//
// Everything reported is virtual-clock state, so the numbers are a pure
// function of the seed: `--json PATH` writes a machine-readable snapshot
// that CI diffs byte-for-byte against the checked-in BENCH_serve.json.
// GREEN_FAULTS is honored (the CI soak job injects at serve.admit /
// serve.batch / serve.predict and asserts conservation still holds);
// the snapshot job runs without injections.

#include <cstdio>
#include <string>
#include <vector>

#include "green/bench_util/experiment.h"
#include "green/bench_util/table_printer.h"
#include "green/common/fault.h"
#include "green/common/knobs.h"
#include "green/common/stringutil.h"
#include "green/energy/energy_model.h"
#include "green/serve/inference_server.h"
#include "green/sim/execution_context.h"
#include "green/table/split.h"

namespace green {
namespace {

struct PolicyCell {
  std::string name;
  ServePolicy policy;
};

struct CellResult {
  std::string name;  ///< "trace/policy".
  ServeReport report;
};

std::vector<PolicyCell> PolicyMatrix() {
  std::vector<PolicyCell> cells;
  {
    PolicyCell cell;
    cell.name = "baseline";
    cells.push_back(std::move(cell));
  }
  {
    PolicyCell cell;
    cell.name = "deadline-fail";
    cell.policy.deadline_seconds = 0.020;
    cell.policy.on_deadline = ServePolicy::DeadlineAction::kFail;
    cells.push_back(std::move(cell));
  }
  {
    PolicyCell cell;
    cell.name = "deadline-degrade";
    cell.policy.deadline_seconds = 0.005;
    cell.policy.on_deadline = ServePolicy::DeadlineAction::kDegrade;
    cells.push_back(std::move(cell));
  }
  {
    PolicyCell cell;
    cell.name = "energy-slo";
    cell.policy.energy_slo_joules = 0.001;
    cells.push_back(std::move(cell));
  }
  {
    PolicyCell cell;
    cell.name = "tight-queue";
    cell.policy.queue_capacity = 8;
    cell.policy.shed = ServePolicy::ShedPolicy::kOldest;
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// JSON snapshot: integer counts plus %.6g virtual metrics only — no
/// host time, no pointers — so reruns are byte-identical.
bool WriteJson(const std::string& path,
               const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const ServeReport& r = cells[i].report;
    std::fprintf(
        f,
        "  {\"name\": \"%s\", \"arrived\": %zu, \"completed\": %zu, "
        "\"degraded\": %zu, \"rejected\": %zu, \"deadline\": %zu, "
        "\"batches\": %zu, \"p50_ms\": %.6g, \"p95_ms\": %.6g, "
        "\"p99_ms\": %.6g, \"joules_per_request\": %.6g}%s\n",
        cells[i].name.c_str(), r.arrived, r.completed, r.degraded,
        r.rejected, r.deadline_exceeded, r.batches,
        r.LatencyPercentile(0.50) * 1e3, r.LatencyPercentile(0.95) * 1e3,
        r.LatencyPercentile(0.99) * 1e3, r.JoulesPerRequest(),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  // fclose flushes the buffer, so a full device often fails only there.
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // Deliberately NOT ExperimentConfig::FromEnv(): the snapshot must be a
  // pure function of the seed, so profile/scale knobs cannot shift it.
  // Fault injection is the one env input the soak job needs.
  ExperimentConfig config;
  config.faults = EnvKnob<std::string>(knob::kFaults).value_or(config.faults);

  EnergyModel energy_model(config.machine);
  // One ensembling artifact serves every cell: AutoGluon gives the
  // ladder all three rungs (full stack -> best single -> constant).
  VirtualClock fit_clock;
  ExecutionContext fit_ctx(&fit_clock, &energy_model, config.cores);
  auto deployment = FitServeDeployment(config, &fit_ctx);
  if (!deployment.ok()) {
    std::fprintf(stderr, "serve bench: fit failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  const TrainTestData& data = deployment->data;
  auto ladder =
      ArtifactLadder::Build(deployment->artifact, data.train, &energy_model);
  if (!ladder.ok()) {
    std::fprintf(stderr, "serve bench: %s\n",
                 ladder.status().ToString().c_str());
    return 1;
  }

  const FaultInjector faults =
      FaultInjector::Lenient(config.faults, config.seed);

  std::vector<TraceSpec> traces(2);
  traces[0].kind = TraceSpec::Kind::kDiurnal;
  traces[0].rate_rps = 60.0;
  traces[0].duration_seconds = 10.0;
  traces[0].seed = config.seed;
  traces[1].kind = TraceSpec::Kind::kBurst;
  traces[1].rate_rps = 30.0;
  traces[1].duration_seconds = 10.0;
  traces[1].seed = config.seed;

  const std::vector<PolicyCell> policies = PolicyMatrix();
  std::vector<CellResult> cells;
  for (const TraceSpec& trace_spec : traces) {
    const std::vector<ServeRequest> trace =
        GenerateTrace(trace_spec, data.test.num_rows());
    PrintBanner(StrFormat(
        "Serving: %s trace (%zu requests over %.0f s) x %zu policies",
        TraceKindName(trace_spec.kind), trace.size(),
        trace_spec.duration_seconds, policies.size()));
    TablePrinter table({"policy", "completed", "degraded", "rejected",
                        "deadline", "p50 ms", "p95 ms", "p99 ms",
                        "J/request"});
    for (const PolicyCell& cell : policies) {
      InferenceServer server(ladder.value(), data.test, &energy_model,
                             cell.policy, &faults, config.cores);
      auto report = server.Replay(trace);
      if (!report.ok()) {
        std::fprintf(stderr, "serve bench: %s/%s: %s\n",
                     TraceKindName(trace_spec.kind), cell.name.c_str(),
                     report.status().ToString().c_str());
        return 1;
      }
      const Status conserved = report->CheckConservation();
      if (!conserved.ok()) {
        std::fprintf(stderr,
                     "serve bench: %s/%s: conservation FAILED: %s\n",
                     TraceKindName(trace_spec.kind), cell.name.c_str(),
                     conserved.ToString().c_str());
        return 1;
      }
      table.AddRow({cell.name, StrFormat("%zu", report->completed),
                    StrFormat("%zu", report->degraded),
                    StrFormat("%zu", report->rejected),
                    StrFormat("%zu", report->deadline_exceeded),
                    StrFormat("%.2f", report->LatencyPercentile(0.50) * 1e3),
                    StrFormat("%.2f", report->LatencyPercentile(0.95) * 1e3),
                    StrFormat("%.2f", report->LatencyPercentile(0.99) * 1e3),
                    StrFormat("%.4g", report->JoulesPerRequest())});
      CellResult result;
      result.name = StrFormat("%s/%s", TraceKindName(trace_spec.kind),
                              cell.name.c_str());
      result.report = std::move(report).value();
      cells.push_back(std::move(result));
    }
    table.Print();
  }

  std::printf(
      "\nShape check: the degrade policy trades accuracy tier for tail "
      "latency (p99 falls, degraded count rises); the energy SLO caps "
      "J/request; the tight queue sheds under the burst's peak load. "
      "Every cell conserves requests: arrived == completed + degraded + "
      "rejected + deadline.\n");

  if (!json_path.empty() && !WriteJson(json_path, cells)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
