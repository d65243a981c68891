// Mixed-task sweep: every AutoML system (including the multi-fidelity
// AutoPt ladder) runs over a synthetic suite that mixes binary,
// multiclass, and regression datasets in ONE sweep grid, then the whole
// grid is re-run through the parallel, sharded, and fault+resume paths.
//
// Hard gates (exit nonzero on violation):
//   1. Parallel (--jobs 4), sharded (3 shards, journals merged), and
//      interrupted+resumed sweeps each reproduce the sequential record
//      stream BYTE-identically — task-typed cells inherit the same
//      determinism contract the binary-only benches always had.
//   2. Total execution energy is invariant across all four modes.
//   3. Per-record scope energies conserve (dynamic sums bounded by the
//      headline totals) for every ok cell, regression included.
//   4. Unsupported (system, task) combos surface as `skipped` records —
//      never as failures and never silently dropped.
//
// The clean sequential stream is a pure function of the seed: `--json
// PATH` writes it as JSONL for CI to diff against the checked-in
// BENCH_mixed_tasks.json.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/common/stringutil.h"
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

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.budget_scale = 0.05;
  config.repetitions = 1;
  config.seed = 404;
  config.collect_scopes = true;
  return config;
}

std::string Serialize(const std::vector<RunRecord>& records) {
  std::string out;
  for (const RunRecord& record : records) {
    out += RecordToJson(record);
    out += '\n';
  }
  return out;
}

double TotalExecutionKwh(const std::vector<RunRecord>& records) {
  double total = 0.0;
  for (const RunRecord& record : records) total += record.execution_kwh;
  return total;
}

/// Journal-loaded records round-trip through %.10g text, so their
/// doubles can differ from the in-memory originals at ulp level even
/// when the serialized streams are byte-identical. Energy invariance is
/// therefore judged at just below the serialization precision.
bool SameKwh(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= 1e-9 * std::max(scale, 1e-300);
}

bool CheckScopeConservation(const std::vector<RunRecord>& records) {
  for (const RunRecord& record : records) {
    if (!record.ok()) continue;
    if (record.scopes.empty()) {
      std::fprintf(stderr, "FAIL: ok cell %s has no scopes\n",
                   RunRecordCellKey(record).c_str());
      return false;
    }
    double execution_sum = 0.0, inference_sum = 0.0;
    for (const RunScope& scope : record.scopes) {
      if (scope.kwh < 0.0) {
        std::fprintf(stderr, "FAIL: negative scope energy %s in %s\n",
                     scope.path.c_str(), RunRecordCellKey(record).c_str());
        return false;
      }
      if (scope.path.rfind("execution/", 0) == 0) execution_sum += scope.kwh;
      if (scope.path.rfind("inference/", 0) == 0) inference_sum += scope.kwh;
    }
    // Scope rows carry dynamic energy; headline totals add the idle
    // baseline, so the sums are strict lower bounds.
    if (execution_sum <= 0.0 ||
        execution_sum > record.execution_kwh * (1.0 + 1e-9) ||
        inference_sum > record.inference_kwh_per_instance * (1.0 + 1e-9)) {
      std::fprintf(stderr, "FAIL: scope sums do not conserve in %s\n",
                   RunRecordCellKey(record).c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const std::vector<std::string> systems = AllSystemNames();
  const std::vector<double> budgets = {10.0, 60.0};
  // Journals are named per process, so concurrent runs never share one.
  const std::string journal_prefix =
      StrFormat("/tmp/mixed_task_sweep.%d.", static_cast<int>(getpid()));

  // --- Mode 1: sequential reference ---------------------------------
  ExperimentConfig sequential_config = BaseConfig();
  ExperimentRunner sequential(sequential_config);
  sequential.SetSuite(MixedSuite());
  auto reference = sequential.Sweep(systems, budgets);
  if (!reference.ok()) {
    std::fprintf(stderr, "sequential sweep failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  const std::string reference_stream = Serialize(*reference);
  const double reference_kwh = TotalExecutionKwh(*reference);

  size_t ok_cells = 0, skipped_cells = 0, failed_cells = 0;
  size_t regression_cells = 0, multiclass_cells = 0;
  for (const RunRecord& record : *reference) {
    if (record.ok()) ++ok_cells;
    if (record.outcome == RunOutcome::kSkipped) ++skipped_cells;
    if (record.outcome == RunOutcome::kFailed) ++failed_cells;
    if (record.ok() && record.task == TaskType::kRegression) {
      ++regression_cells;
    }
    if (record.ok() && record.dataset == "syn_4class") ++multiclass_cells;
  }
  std::printf("cells: %zu total, %zu ok, %zu skipped, %zu failed\n",
              reference->size(), ok_cells, skipped_cells, failed_cells);
  std::printf("ok regression cells: %zu, ok multiclass cells: %zu\n",
              regression_cells, multiclass_cells);
  if (regression_cells == 0 || multiclass_cells == 0) {
    std::fprintf(stderr, "FAIL: a task type produced no ok cells\n");
    return 1;
  }
  // tabpfn rejects regression: those cells must be typed skips.
  for (const RunRecord& record : *reference) {
    if (record.system == "tabpfn" && record.dataset == "syn_regression" &&
        record.outcome != RunOutcome::kSkipped) {
      std::fprintf(stderr,
                   "FAIL: tabpfn regression cell is %s, want skipped\n",
                   RunOutcomeName(record.outcome));
      return 1;
    }
  }
  if (failed_cells != 0) {
    std::fprintf(stderr, "FAIL: %zu cells failed in the clean sweep\n",
                 failed_cells);
    return 1;
  }
  if (!CheckScopeConservation(*reference)) return 1;

  // --- Mode 2: parallel workers -------------------------------------
  ExperimentConfig parallel_config = BaseConfig();
  parallel_config.jobs = 4;
  ExperimentRunner parallel(parallel_config);
  parallel.SetSuite(MixedSuite());
  auto parallel_records = parallel.Sweep(systems, budgets);
  if (!parallel_records.ok()) {
    std::fprintf(stderr, "parallel sweep failed: %s\n",
                 parallel_records.status().ToString().c_str());
    return 1;
  }
  if (Serialize(*parallel_records) != reference_stream) {
    std::fprintf(stderr, "FAIL: parallel stream != sequential stream\n");
    return 1;
  }
  std::printf("parallel (4 jobs): byte-identical, %.0f%% wall of ref\n",
              sequential.last_sweep_wall_seconds() > 0
                  ? 100.0 * parallel.last_sweep_wall_seconds() /
                        sequential.last_sweep_wall_seconds()
                  : 0.0);

  // --- Mode 3: three shards, journals merged ------------------------
  std::vector<std::string> shard_paths;
  for (int i = 0; i < 3; ++i) {
    ExperimentConfig shard_config = BaseConfig();
    shard_config.shard_index = i;
    shard_config.shard_count = 3;
    shard_config.jobs = 2;
    shard_config.journal_path =
        journal_prefix + StrFormat("shard%d.jsonl", i);
    shard_paths.push_back(shard_config.journal_path);
    ExperimentRunner shard(shard_config);
    shard.SetSuite(MixedSuite());
    auto shard_records = shard.Sweep(systems, budgets);
    if (!shard_records.ok()) {
      std::fprintf(stderr, "shard %d sweep failed: %s\n", i,
                   shard_records.status().ToString().c_str());
      return 1;
    }
  }
  const std::string merged_path = journal_prefix + "merged.jsonl";
  auto merged = MergeShardJournals(shard_paths, merged_path);
  if (!merged.ok()) {
    std::fprintf(stderr, "journal merge failed: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }
  auto merged_records = ReadRecordsJsonl(merged_path);
  if (!merged_records.ok()) {
    std::fprintf(stderr, "cannot read merged journal: %s\n",
                 merged_records.status().ToString().c_str());
    return 1;
  }
  if (Serialize(*merged_records) != reference_stream) {
    std::fprintf(stderr, "FAIL: merged shard stream != sequential\n");
    return 1;
  }
  std::printf("sharded (3 x --jobs 2, merged): byte-identical\n");

  // --- Mode 4: faults injected, journal truncated mid-sweep, resumed -
  // run.fit faults are retried per the policy; fault draws are keyed by
  // (cell, attempt) so every mode — and the resumed rerun — re-rolls the
  // SAME dice, keeping even fault-hit cells byte-identical.
  ExperimentConfig faulty_config = BaseConfig();
  faulty_config.faults = "run.fit@0.15";
  faulty_config.journal_path = journal_prefix + "faulty.jsonl";
  ExperimentRunner faulty(faulty_config);
  faulty.SetSuite(MixedSuite());
  auto faulty_records = faulty.Sweep(systems, budgets);
  if (!faulty_records.ok()) {
    std::fprintf(stderr, "faulted sweep failed: %s\n",
                 faulty_records.status().ToString().c_str());
    return 1;
  }
  const std::string faulty_stream = Serialize(*faulty_records);
  const double faulty_kwh = TotalExecutionKwh(*faulty_records);
  if (!CheckScopeConservation(*faulty_records)) return 1;

  // Simulate a crash: keep only the first half of the journal, then
  // resume. Loaded + re-run cells must reproduce the full faulted
  // stream byte-for-byte.
  auto journal = ReadJournalJsonl(faulty_config.journal_path);
  if (!journal.ok()) {
    std::fprintf(stderr, "cannot read faulty journal: %s\n",
                 journal.status().ToString().c_str());
    return 1;
  }
  std::vector<RunRecord> half(journal->begin(),
                              journal->begin() + journal->size() / 2);
  Status truncate =
      WriteRecordsJsonl(half, faulty_config.journal_path);
  if (!truncate.ok()) {
    std::fprintf(stderr, "cannot truncate journal: %s\n",
                 truncate.ToString().c_str());
    return 1;
  }
  ExperimentConfig resume_config = faulty_config;
  resume_config.resume = true;
  ExperimentRunner resumed(resume_config);
  resumed.SetSuite(MixedSuite());
  auto resumed_records = resumed.Sweep(systems, budgets);
  if (!resumed_records.ok()) {
    std::fprintf(stderr, "resumed sweep failed: %s\n",
                 resumed_records.status().ToString().c_str());
    return 1;
  }
  if (Serialize(*resumed_records) != faulty_stream) {
    std::fprintf(stderr, "FAIL: resumed stream != faulted stream\n");
    return 1;
  }
  if (!SameKwh(TotalExecutionKwh(*resumed_records), faulty_kwh)) {
    std::fprintf(stderr, "FAIL: resumed energy != faulted energy\n");
    return 1;
  }
  std::printf(
      "faulted + interrupted + resumed: byte-identical "
      "(%zu cells loaded from journal)\n",
      resumed.last_sweep_resumed_cells());

  // --- Energy invariance across modes -------------------------------
  const double parallel_kwh = TotalExecutionKwh(*parallel_records);
  const double merged_kwh = TotalExecutionKwh(*merged_records);
  if (!SameKwh(parallel_kwh, reference_kwh) ||
      !SameKwh(merged_kwh, reference_kwh)) {
    std::fprintf(stderr,
                 "FAIL: energy not invariant: seq %.12g par %.12g "
                 "sharded %.12g\n",
                 reference_kwh, parallel_kwh, merged_kwh);
    return 1;
  }
  std::printf("execution energy invariant across modes: %.6f kWh\n",
              reference_kwh);

  if (!json_path.empty()) {
    Status wrote = WriteRecordsJsonl(*reference, json_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   wrote.ToString().c_str());
      return 1;
    }
    std::printf("snapshot: %s (%zu records)\n", json_path.c_str(),
                reference->size());
  }
  shard_paths.push_back(merged_path);
  shard_paths.push_back(faulty_config.journal_path);
  for (const std::string& path : shard_paths) std::remove(path.c_str());
  std::printf("mixed_task_sweep: all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
