// Mixed-task sweep: every AutoML system (including the multi-fidelity
// AutoPt ladder) runs over a synthetic suite that mixes binary,
// multiclass, and regression datasets in ONE sweep grid.
//
// Hard gates (exit nonzero on violation):
//   1. The invariance harness (bench_util/invariance.h): the parallel
//      (--jobs 4) and sharded (3 shards, journals merged) sweeps each
//      reproduce the sequential record stream byte-identically with the
//      same total execution energy, and so does a sweep with run.fit
//      faults injected when its journal is cut in half and resumed; every
//      ok cell's scope energies conserve, regression included.
//   2. Every task type yields ok cells; unsupported (system, task) combos
//      surface as `skipped` records, never as failures and never silently
//      dropped.
//
// The clean sequential stream is a pure function of the seed: `--json
// PATH` writes it as JSONL for CI to diff against the checked-in
// BENCH_mixed_tasks.json.

#include <cstdio>
#include <string>
#include <vector>

#include "green/bench_util/invariance.h"
#include "green/bench_util/record_io.h"
#include "green/data/synthetic.h"

namespace green {
namespace {

std::vector<Dataset> MixedSuite() {
  std::vector<Dataset> suite;

  SyntheticSpec binary;
  binary.name = "syn_binary";
  binary.num_rows = 160;
  binary.num_features = 10;
  binary.num_informative = 6;
  binary.num_categorical = 2;
  binary.seed = 71;
  suite.push_back(GenerateSynthetic(binary).value());

  SyntheticSpec multiclass;
  multiclass.name = "syn_4class";
  multiclass.num_rows = 200;
  multiclass.num_features = 12;
  multiclass.num_classes = 4;
  multiclass.num_informative = 8;
  multiclass.separation = 2.5;
  multiclass.seed = 72;
  suite.push_back(GenerateSynthetic(multiclass).value());

  SyntheticRegressionSpec regression;
  regression.name = "syn_regression";
  regression.num_rows = 180;
  regression.num_features = 10;
  regression.num_informative = 6;
  regression.num_categorical = 2;
  regression.seed = 73;
  suite.push_back(GenerateSyntheticRegression(regression).value());

  return suite;
}

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  SweepCase sweep;
  sweep.config.budget_scale = 0.05;
  sweep.config.repetitions = 1;
  sweep.config.seed = 404;
  sweep.config.collect_scopes = true;
  sweep.suite = MixedSuite();
  sweep.systems = AllSystemNames();
  sweep.budgets = {10.0, 60.0};
  // Fault draws are keyed by (cell, attempt), so the resumed rerun
  // re-rolls the same dice and even fault-hit cells stay byte-identical.
  SweepCase faulted = sweep;
  faulted.config.faults = "run.fit@0.15";
  InvarianceMatrix matrix(std::move(sweep));
  Status invariant = matrix.Check(
      {InvarianceStrategy::Jobs(4), InvarianceStrategy::Shards(3)});
  if (invariant.ok()) {
    invariant = InvarianceMatrix(std::move(faulted))
                    .Check({InvarianceStrategy::Resume()});
  }
  if (!invariant.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", invariant.ToString().c_str());
    return 1;
  }
  const std::vector<RunRecord>& reference = matrix.reference();

  size_t ok_cells = 0, skipped_cells = 0, failed_cells = 0;
  size_t regression_cells = 0, multiclass_cells = 0;
  for (const RunRecord& record : reference) {
    ok_cells += record.ok();
    skipped_cells += record.outcome == RunOutcome::kSkipped;
    failed_cells += record.outcome == RunOutcome::kFailed;
    regression_cells += record.ok() && record.task == TaskType::kRegression;
    multiclass_cells += record.ok() && record.dataset == "syn_4class";
    // tabpfn rejects regression: those cells must be typed skips.
    if (record.system == "tabpfn" && record.dataset == "syn_regression" &&
        record.outcome != RunOutcome::kSkipped) {
      std::fprintf(stderr,
                   "FAIL: tabpfn regression cell is %s, want skipped\n",
                   RunOutcomeName(record.outcome));
      return 1;
    }
  }
  std::printf("cells: %zu total, %zu ok, %zu skipped, %zu failed\n",
              reference.size(), ok_cells, skipped_cells, failed_cells);
  std::printf("ok regression cells: %zu, ok multiclass cells: %zu\n",
              regression_cells, multiclass_cells);
  std::printf("jobs=4, 3 shards, faulted resume: byte-identical, energy "
              "and scopes conserved\n");
  if (regression_cells == 0 || multiclass_cells == 0) {
    std::fprintf(stderr, "FAIL: a task type produced no ok cells\n");
    return 1;
  }
  if (failed_cells != 0) {
    std::fprintf(stderr, "FAIL: %zu cells failed in the clean sweep\n",
                 failed_cells);
    return 1;
  }

  if (!json_path.empty()) {
    Status wrote = WriteRecordsJsonl(reference, json_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   wrote.ToString().c_str());
      return 1;
    }
    std::printf("snapshot: %s (%zu records)\n", json_path.c_str(),
                reference.size());
  }
  std::printf("mixed_task_sweep: all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
