#include "green/bench_util/invariance.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "green/bench_util/record_io.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

/// Scope rows carry dynamic energy; headline totals add the idle
/// baseline, so each stage's scope sum is a strict lower bound on it.
Status CheckScopeConservation(const std::vector<RunRecord>& records) {
  for (const RunRecord& record : records) {
    if (!record.ok()) continue;
    const std::string key = RunRecordCellKey(record);
    if (record.scopes.empty()) {
      return Status::Internal("ok cell " + key + " has no scopes");
    }
    double execution_sum = 0.0, inference_sum = 0.0;
    for (const RunScope& scope : record.scopes) {
      if (scope.kwh < 0.0) {
        return Status::Internal("negative scope energy " + scope.path +
                                " in " + key);
      }
      if (scope.path.rfind("execution/", 0) == 0) execution_sum += scope.kwh;
      if (scope.path.rfind("inference/", 0) == 0) inference_sum += scope.kwh;
    }
    if (execution_sum <= 0.0 ||
        execution_sum > record.execution_kwh * (1.0 + 1e-9) ||
        inference_sum > record.inference_kwh_per_instance * (1.0 + 1e-9)) {
      return Status::Internal("scope sums do not conserve in " + key);
    }
  }
  return Status::Ok();
}

/// A fresh directory per Check, so concurrent processes and checks never
/// share a journal.
Result<std::string> MakeScratchDir() {
  std::error_code error;
  std::string dir = (std::filesystem::temp_directory_path(error) /
                     "green_invariance.XXXXXX")
                        .string();
  if (error || mkdtemp(dir.data()) == nullptr) {
    return Status::IoError("cannot create " + dir);
  }
  return dir + "/";
}

}  // namespace

Status CompareRecords(const std::vector<RunRecord>& reference,
                      const std::vector<RunRecord>& records) {
  double reference_kwh = 0.0, kwh = 0.0;
  for (size_t i = 0; i < std::max(reference.size(), records.size()); ++i) {
    if (i >= reference.size() || i >= records.size() ||
        RecordToJson(reference[i]) != RecordToJson(records[i])) {
      const RunRecord& cell = i < reference.size() ? reference[i] : records[i];
      return Status::Internal(StrFormat("cell %zu (%s) differs", i,
                                        RunRecordCellKey(cell).c_str()));
    }
    reference_kwh += reference[i].execution_kwh;
    kwh += records[i].execution_kwh;
  }
  // Journal-loaded records round-trip through %.10g text, so their
  // doubles can differ from the in-memory originals at ulp level even
  // when the streams are byte-identical: energy is judged at just below
  // the serialization precision.
  const double scale = std::max(std::abs(kwh), std::abs(reference_kwh));
  if (!(std::abs(kwh - reference_kwh) <= 1e-9 * std::max(scale, 1e-300))) {
    return Status::Internal(StrFormat(
        "execution energy %.12g kWh != reference %.12g kWh", kwh,
        reference_kwh));
  }
  return Status::Ok();
}

std::string InvarianceStrategy::Name() const {
  static const char* const kNames[] = {"jobs=%d", "%d shards", "cache off",
                                       "resume"};
  return StrFormat(kNames[static_cast<int>(kind)], n);
}

Status InvarianceMatrix::Check(
    const std::vector<InvarianceStrategy>& strategies) {
  GREEN_ASSIGN_OR_RETURN(const std::string scratch, MakeScratchDir());
  const Status status = CheckIn(scratch, strategies);
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  return status;
}

Status InvarianceMatrix::CheckIn(
    const std::string& scratch,
    const std::vector<InvarianceStrategy>& strategies) {
  // The reference journals its cells for the resume strategy to cut.
  ExperimentConfig config = case_.config;
  config.journal_path = scratch + "reference.jsonl";
  config.resume = false;
  ExperimentRunner runner(config);
  GREEN_ASSIGN_OR_RETURN(reference_, Sweep(&runner));
  if (reference_.empty()) {
    return Status::InvalidArgument("invariance: the case has no cells");
  }
  auto conserves = [&](const std::vector<RunRecord>& records) {
    return case_.config.collect_scopes ? CheckScopeConservation(records)
                                       : Status::Ok();
  };
  if (Status status = conserves(reference_); !status.ok()) {
    return Status::Internal("invariance: reference: " + status.message());
  }
  for (const InvarianceStrategy& strategy : strategies) {
    Result<std::vector<RunRecord>> records =
        Run(strategy, scratch, runner.transform_cache_stats());
    Status status =
        records.ok() ? CompareRecords(reference_, *records) : records.status();
    if (status.ok()) status = conserves(*records);
    if (!status.ok()) {
      return Status::Internal("invariance: " + strategy.Name() + ": " +
                              status.message());
    }
  }
  return Status::Ok();
}

Result<std::vector<RunRecord>> InvarianceMatrix::Run(
    const InvarianceStrategy& strategy, const std::string& scratch,
    const TransformCacheStats& reference_cache) {
  ExperimentConfig config = case_.config;
  switch (strategy.kind) {
    case InvarianceStrategy::Kind::kJobs: {
      config.jobs = strategy.n;
      ExperimentRunner runner(config);
      return Sweep(&runner);
    }
    case InvarianceStrategy::Kind::kShards: {
      std::vector<std::string> journals;
      for (int i = 0; i < strategy.n; ++i) {
        config.shard_index = i;
        config.shard_count = strategy.n;
        config.jobs = 2;
        config.journal_path = scratch + StrFormat("shard%d.jsonl", i);
        journals.push_back(config.journal_path);
        ExperimentRunner runner(config);
        GREEN_ASSIGN_OR_RETURN(const std::vector<RunRecord> records,
                               Sweep(&runner));
        // A shard that ran another shard's cells would still merge into
        // the right stream; only its own slice proves the split.
        for (const RunRecord& record : records) {
          if (record.cell_index % strategy.n != i) {
            return Status::Internal(StrFormat(
                "shard %d returned cell %lld (%s)", i,
                static_cast<long long>(record.cell_index),
                RunRecordCellKey(record).c_str()));
          }
        }
      }
      const std::string merged = scratch + "merged.jsonl";
      GREEN_RETURN_IF_ERROR(MergeShardJournals(journals, merged).status());
      return ReadRecordsJsonl(merged);
    }
    case InvarianceStrategy::Kind::kCacheOff: {
      if (reference_cache.hits + reference_cache.misses == 0) {
        return Status::Internal(
            "the reference's transform cache saw no traffic");
      }
      config.transform_cache = false;
      ExperimentRunner runner(config);
      GREEN_ASSIGN_OR_RETURN(std::vector<RunRecord> records, Sweep(&runner));
      if (runner.transform_cache_stats().hits > 0) {
        return Status::Internal("the disabled transform cache hit");
      }
      return records;
    }
    case InvarianceStrategy::Kind::kResume: {
      // A crash halfway: the journal keeps the cells that finished first.
      config.journal_path = scratch + "reference.jsonl";
      GREEN_ASSIGN_OR_RETURN(JournalContents journal,
                             ReadJournal(config.journal_path));
      journal.records.resize(journal.records.size() / 2);
      GREEN_RETURN_IF_ERROR(
          WriteRecordsJsonl(journal.records, config.journal_path));
      config.resume = true;
      ExperimentRunner runner(config);
      GREEN_ASSIGN_OR_RETURN(std::vector<RunRecord> records, Sweep(&runner));
      if (runner.last_sweep_resumed_cells() != journal.records.size()) {
        return Status::Internal(StrFormat(
            "%zu cells loaded from a journal of %zu",
            runner.last_sweep_resumed_cells(), journal.records.size()));
      }
      return records;
    }
  }
  return Status::InvalidArgument("unknown invariance strategy");
}

Result<std::vector<RunRecord>> InvarianceMatrix::Sweep(
    ExperimentRunner* runner) const {
  if (!case_.suite.empty()) runner->SetSuite(case_.suite);
  return runner->Sweep(case_.systems, case_.budgets, case_.variants);
}

}  // namespace green
