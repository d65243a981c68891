#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/invariance.h"
#include "green/bench_util/record_io.h"
#include "green/bench_util/table_printer.h"
#include "green/common/cancel.h"
#include "green/common/fault.h"
#include "green/common/retry.h"

namespace green {
namespace {

// --- aggregate ---

TEST(AggregateTest, ComputeStats) {
  const Stats s = ComputeStats({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(ComputeStats({}).n, 0u);
}

RunRecord MakeRecord(const std::string& system,
                     const std::string& dataset, double budget,
                     double acc) {
  RunRecord r;
  r.system = system;
  r.dataset = dataset;
  r.paper_budget_seconds = budget;
  r.test_balanced_accuracy = acc;
  return r;
}

TEST(AggregateTest, BootstrapMeanNearTrueMean) {
  std::vector<RunRecord> records;
  for (int rep = 0; rep < 5; ++rep) {
    records.push_back(MakeRecord("caml", "a", 30, 0.8));
    records.push_back(MakeRecord("caml", "b", 30, 0.6));
  }
  const Stats s = BootstrapAcrossDatasets(
      records,
      [](const RunRecord& r) { return r.test_balanced_accuracy; }, 200,
      1);
  EXPECT_NEAR(s.mean, 0.7, 1e-9);   // No variance across repetitions.
  EXPECT_NEAR(s.stddev, 0.0, 1e-9);
}

TEST(AggregateTest, BootstrapCapturesRunVariance) {
  std::vector<RunRecord> records;
  records.push_back(MakeRecord("caml", "a", 30, 0.5));
  records.push_back(MakeRecord("caml", "a", 30, 0.9));
  const Stats s = BootstrapAcrossDatasets(
      records,
      [](const RunRecord& r) { return r.test_balanced_accuracy; }, 500,
      1);
  EXPECT_NEAR(s.mean, 0.7, 0.05);
  EXPECT_GT(s.stddev, 0.1);
}

TEST(AggregateTest, FilterAndDistinct) {
  std::vector<RunRecord> records;
  records.push_back(MakeRecord("caml", "a", 30, 0.5));
  records.push_back(MakeRecord("caml", "a", 60, 0.6));
  records.push_back(MakeRecord("flaml", "a", 30, 0.7));
  EXPECT_EQ(Filter(records, "caml", 30).size(), 1u);
  EXPECT_EQ(Filter(records, "caml", 10).size(), 0u);
  EXPECT_EQ(DistinctSystems(records).size(), 2u);
  EXPECT_EQ(DistinctBudgets(records, "caml").size(), 2u);
  EXPECT_EQ(DistinctBudgets(records, "flaml").size(), 1u);
}

// --- table printer ---

TEST(TablePrinterTest, RendersAligned) {
  TablePrinter printer({"system", "kWh"});
  printer.AddRow({"caml", "0.5"});
  printer.AddRow({"autogluon", "1.25"});
  const std::string out = printer.Render();
  EXPECT_NE(out.find("| system    | kWh  |"), std::string::npos);
  EXPECT_NE(out.find("| autogluon | 1.25 |"), std::string::npos);
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter printer({"a", "b", "c"});
  printer.AddRow({"only"});
  EXPECT_NE(printer.Render().find("| only |"), std::string::npos);
}

// --- experiment runner ---

class RunnerTest : public ::testing::Test {
 protected:
  static ExperimentConfig SmallConfig() {
    ExperimentConfig config;
    config.dataset_limit = 2;
    config.repetitions = 1;
    config.seed = 7;
    return config;
  }
};

TEST_F(RunnerTest, AllSystemNamesConstructible) {
  ExperimentRunner runner(SmallConfig());
  for (const std::string& name : AllSystemNames()) {
    auto system = runner.MakeSystem(name, 30.0);
    ASSERT_TRUE(system.ok()) << name;
    EXPECT_FALSE((*system)->Name().empty());
  }
  EXPECT_FALSE(runner.MakeSystem("nonexistent", 30.0).ok());
}

TEST_F(RunnerTest, MinBudgetsMatchPaper) {
  ExperimentRunner runner(SmallConfig());
  EXPECT_EQ(runner.MinBudget("autosklearn1"), 30.0);
  EXPECT_EQ(runner.MinBudget("autosklearn2"), 30.0);
  EXPECT_EQ(runner.MinBudget("tpot"), 60.0);
  EXPECT_EQ(runner.MinBudget("caml"), 0.0);
}

TEST_F(RunnerTest, RunOneProducesSaneRecord) {
  ExperimentRunner runner(SmallConfig());
  auto record = runner.RunOne("caml", runner.suite()[0], 30.0, 0);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->system, "caml");
  EXPECT_EQ(record->paper_budget_seconds, 30.0);
  EXPECT_GT(record->test_balanced_accuracy, 0.0);
  EXPECT_LE(record->test_balanced_accuracy, 1.0);
  EXPECT_GT(record->execution_kwh, 0.0);
  EXPECT_GT(record->execution_seconds, 0.0);
  EXPECT_GT(record->inference_kwh_per_instance, 0.0);
  EXPECT_GE(record->num_pipelines, 1u);
}

TEST_F(RunnerTest, RunsAreReproducible) {
  ExperimentRunner runner(SmallConfig());
  auto a = runner.RunOne("flaml", runner.suite()[0], 10.0, 0);
  auto b = runner.RunOne("flaml", runner.suite()[0], 10.0, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->test_balanced_accuracy, b->test_balanced_accuracy);
  EXPECT_DOUBLE_EQ(a->execution_kwh, b->execution_kwh);
}

TEST_F(RunnerTest, RepetitionsDiffer) {
  ExperimentRunner runner(SmallConfig());
  auto a = runner.RunOne("caml", runner.suite()[0], 60.0, 0);
  auto b = runner.RunOne("caml", runner.suite()[0], 60.0, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  // Different repetition seeds — the runs must not be bit-identical in
  // every reported metric (they draw different splits and proposals).
  const bool all_equal =
      a->execution_kwh == b->execution_kwh &&
      a->test_balanced_accuracy == b->test_balanced_accuracy &&
      a->inference_kwh_per_instance == b->inference_kwh_per_instance;
  EXPECT_FALSE(all_equal);
}

TEST_F(RunnerTest, SweepRecordsUnsupportedBudgetsAsSkipped) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  ExperimentRunner runner(config);
  // TPOT's minimum budget is 60 s: the 10 s cells are enumerated but
  // recorded as skipped — no cell silently disappears from the stream.
  auto records = runner.Sweep({"tpot"}, {10.0, 60.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // 1 dataset x 2 budgets x 1 rep.
  for (const RunRecord& r : *records) {
    if (r.paper_budget_seconds == 10.0) {
      EXPECT_EQ(r.outcome, RunOutcome::kSkipped);
      EXPECT_EQ(r.attempts, 0);
      EXPECT_NE(r.error.find("below system minimum"), std::string::npos);
    } else {
      EXPECT_EQ(r.outcome, RunOutcome::kOk);
      EXPECT_GT(r.test_balanced_accuracy, 0.0);
    }
  }
  EXPECT_EQ(OkOnly(*records).size(), 1u);
}

TEST_F(RunnerTest, TabPfnSweepCollapsesBudgets) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"tabpfn"}, {10.0, 30.0, 60.0});
  ASSERT_TRUE(records.ok());
  // One budget point only: TabPFN has no search-time parameter.
  EXPECT_EQ(DistinctBudgets(*records, "tabpfn").size(), 1u);
}

TEST_F(RunnerTest, CoresOverrideChangesEnergy) {
  ExperimentRunner runner(SmallConfig());
  SweepVariant octa;
  octa.cores = 8;
  auto one = runner.RunOne("caml", runner.suite()[0], 10.0, 0);
  auto eight = runner.RunOne("caml", runner.suite()[0], 10.0, 0,
                             /*cancel=*/nullptr, /*attempt=*/1, &octa);
  ASSERT_TRUE(one.ok() && eight.ok());
  EXPECT_NE(one->execution_kwh, eight->execution_kwh);
}

TEST_F(RunnerTest, Askl2BuildsMetaStoreAndChargesDevelopment) {
  ExperimentRunner runner(SmallConfig());
  EXPECT_EQ(runner.development_kwh(), 0.0);
  auto record = runner.RunOne("autosklearn2", runner.suite()[0], 30.0, 0);
  ASSERT_TRUE(record.ok());
  EXPECT_GT(runner.development_kwh(), 0.0);
}

TEST_F(RunnerTest, ParallelSweepBuildsMetaStoreExactlyOnce) {
  ExperimentConfig config = SmallConfig();
  config.jobs = 4;
  ExperimentRunner runner(config);
  // Several concurrent ASKL cells race to EnsureMetaStore; call_once
  // must charge development energy a single time.
  auto records = runner.Sweep({"autosklearn2"}, {30.0});
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  const double dev_kwh = runner.development_kwh();
  EXPECT_GT(dev_kwh, 0.0);

  ExperimentRunner once(SmallConfig());
  ASSERT_TRUE(once.RunOne("autosklearn2", once.suite()[0], 30.0, 0).ok());
  EXPECT_DOUBLE_EQ(dev_kwh, once.development_kwh());
}

TEST_F(RunnerTest, SweepReportsWallClock) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  ExperimentRunner runner(config);
  EXPECT_EQ(runner.last_sweep_wall_seconds(), 0.0);
  ASSERT_TRUE(runner.Sweep({"caml"}, {10.0}).ok());
  EXPECT_GT(runner.last_sweep_wall_seconds(), 0.0);
}

TEST_F(RunnerTest, MinBudgetTracksSystemDeclaration) {
  ExperimentRunner runner(SmallConfig());
  // The harness gate must agree with each system's own declaration —
  // the values can never drift apart again.
  for (const std::string& name : AllSystemNames()) {
    auto probe = runner.MakeSystem(name, 60.0);
    ASSERT_TRUE(probe.ok()) << name;
    EXPECT_EQ(runner.MinBudget(name), (*probe)->MinBudgetSeconds())
        << name;
  }
  EXPECT_EQ(runner.MinBudget("nonexistent"), 0.0);
}

TEST_F(RunnerTest, ConfigFromEnvDefaultsToFast) {
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  EXPECT_GT(config.dataset_limit, 0u);  // Fast subset unless GREEN_FULL.
  EXPECT_GT(config.budget_scale, 0.0);
}

// --- fault tolerance ---

class FaultyRunnerTest : public RunnerTest {};

TEST_F(FaultyRunnerTest, AlwaysFiringFaultFailsEveryCellAfterRetries) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.faults = "run.fit@1.0";
  config.retry.max_attempts = 2;
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  for (const RunRecord& r : *records) {
    EXPECT_EQ(r.outcome, RunOutcome::kFailed);
    EXPECT_EQ(r.attempts, 2);  // Retried, then gave up.
    EXPECT_NE(r.error.find("injected fault"), std::string::npos);
  }
  EXPECT_TRUE(OkOnly(*records).empty());
}

TEST_F(FaultyRunnerTest, ExactlyKCellsFailWithCorrectTaxonomy) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 2;
  config.repetitions = 2;
  // Two single-shot faults with different kinds; retries disabled so
  // the taxonomy is visible in the records.
  config.faults = "run.fit#2,run.fit#4=timeout";
  config.retry.max_attempts = 1;
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 8u);  // 2 datasets x 2 budgets x 2 reps.
  size_t failed = 0, timeouts = 0;
  for (const RunRecord& r : *records) {
    if (r.outcome == RunOutcome::kFailed) ++failed;
    if (r.outcome == RunOutcome::kTimeout) ++timeouts;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(timeouts, 1u);
  EXPECT_EQ(OkOnly(*records).size(), 6u);

  const std::string summary = RenderFailureSummary(*records);
  EXPECT_NE(summary.find("caml"), std::string::npos);
  const auto counts = CountOutcomes(*records);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second.ok, 6u);
  EXPECT_EQ(counts[0].second.failed, 1u);
  EXPECT_EQ(counts[0].second.timeout, 1u);
}

TEST_F(FaultyRunnerTest, FailureSummaryBreaksFailuresDownPerFaultSite) {
  std::vector<RunRecord> records(4);
  records[0].system = "caml";
  records[0].outcome = RunOutcome::kFailed;
  records[0].error = "run failed: injected fault at run.fit (attempt 1)";
  records[1].system = "caml";
  records[1].outcome = RunOutcome::kTimeout;
  records[1].error = "injected timeout at serve.predict";
  records[2].system = "flaml";
  records[2].outcome = RunOutcome::kFailed;
  records[2].error = "organic: singular matrix";  // No marker: no site row.
  records[3].system = "flaml";
  records[3].outcome = RunOutcome::kOk;

  const std::string summary = RenderFailureSummary(records);
  EXPECT_NE(summary.find("failures by injected fault site"),
            std::string::npos);
  EXPECT_NE(summary.find("run.fit"), std::string::npos);
  EXPECT_NE(summary.find("serve.predict"), std::string::npos);
  EXPECT_EQ(summary.find("singular"), std::string::npos);

  // Purely organic failures keep the original one-table output.
  const std::string organic =
      RenderFailureSummary({records[2], records[3]});
  EXPECT_NE(organic.find("flaml"), std::string::npos);
  EXPECT_EQ(organic.find("fault site"), std::string::npos);
}

TEST_F(FaultyRunnerTest, FailureSummaryAppendsExtraFailureSites) {
  std::vector<RunRecord> records(1);
  records[0].system = "caml";
  records[0].outcome = RunOutcome::kOk;

  // All cells ok, but the harness lost journal writes: the summary must
  // still surface them as a site row.
  const std::string summary =
      RenderFailureSummary(records, {{"journal.append", 3}});
  EXPECT_NE(summary.find("journal.append"), std::string::npos);
  EXPECT_NE(summary.find("3"), std::string::npos);
  // Zero-count extras render nothing at all.
  EXPECT_TRUE(RenderFailureSummary(records, {{"journal.append", 0}})
                  .empty());
}

TEST_F(FaultyRunnerTest, InjectedFaultSiteExtraction) {
  EXPECT_EQ(InjectedFaultSite("injected fault at run.fit"), "run.fit");
  EXPECT_EQ(InjectedFaultSite("x: injected timeout at serve.batch (y)"),
            "serve.batch");
  EXPECT_EQ(InjectedFaultSite("no marker here"), "");
}

TEST_F(FaultyRunnerTest, RetryRecoversSingleShotFault) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 2;
  config.faults = "run.fit#2";  // Transient: fires once, ever.
  config.retry.max_attempts = 2;
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 4u);
  int retried_cells = 0;
  for (const RunRecord& r : *records) {
    EXPECT_EQ(r.outcome, RunOutcome::kOk);
    if (r.attempts == 2) ++retried_cells;
  }
  EXPECT_EQ(retried_cells, 1);  // Exactly the cell that drew the fault.
}

TEST_F(FaultyRunnerTest, PreCancelledCellRecordsTimeout) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  ExperimentRunner runner(config);
  CancelToken cancelled;
  cancelled.Cancel();
  for (const std::string& system :
       {std::string("caml"), std::string("flaml"), std::string("tabpfn"),
        std::string("autogluon"), std::string("random_search")}) {
    const RunRecord record = runner.RunCell(
        system, runner.suite()[0], 60.0, 0, &cancelled);
    EXPECT_EQ(record.outcome, RunOutcome::kTimeout) << system;
    EXPECT_NE(record.error.find("cancelled"), std::string::npos)
        << system;
  }
}

TEST_F(FaultyRunnerTest, CellTimeLimitTimesOutEveryCell) {
  ExperimentConfig config = SmallConfig();
  config.jobs = 4;
  config.cell_timeout_seconds = 1e-9;  // Passed before any cell polls.
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml", "flaml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 8u);  // 2 systems x 2 budgets x 2 datasets.
  // The deadline is checked at every poll, so even the fastest cell
  // cannot finish ok, and the sweep still ends with a record per cell.
  for (const RunRecord& r : *records) {
    EXPECT_EQ(r.outcome, RunOutcome::kTimeout)
        << r.system << " on " << r.dataset << ": " << r.error;
  }
}

TEST_F(FaultyRunnerTest, MetaStoreBuildFailureRecoversOnRetry) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.faults = "askl.metastore.build#1";
  config.retry.max_attempts = 2;
  ExperimentRunner runner(config);
  // Attempt 1 hits the injected build failure; the store must NOT be
  // poisoned — attempt 2 rebuilds and succeeds.
  const RunRecord record =
      runner.RunCell("autosklearn2", runner.suite()[0], 30.0, 0);
  EXPECT_EQ(record.outcome, RunOutcome::kOk);
  EXPECT_EQ(record.attempts, 2);
  EXPECT_GT(runner.development_kwh(), 0.0);
}

// --- journal / resume ---

class JournalTest : public RunnerTest {
 protected:
  static std::string JournalPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(JournalTest, SweepWritesJournalMatchingRecords) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.journal_path = JournalPath("journal_basic.jsonl");
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());

  auto journal = ReadJournal(config.journal_path);
  ASSERT_TRUE(journal.ok());
  // Journal lines round-trip to the records byte-identically (order may
  // differ under parallel sweeps; here jobs=1 keeps it aligned).
  EXPECT_EQ(CompareRecords(*records, journal->records).ToString(), "OK");
  std::remove(config.journal_path.c_str());
}

TEST_F(JournalTest, ResumeLoadsInsteadOfRerunning) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 1;
  config.journal_path = JournalPath("journal_resume.jsonl");
  ExperimentRunner first(config);
  auto original = first.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(original.ok());

  // Resume over a COMPLETE journal with an always-firing fault: if any
  // cell were re-run it would come back failed, so all-ok proves every
  // cell was loaded from the journal.
  config.resume = true;
  config.faults = "run.fit@1.0";
  ExperimentRunner second(config);
  auto resumed = second.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(CompareRecords(*original, *resumed).ToString(), "OK");
  EXPECT_EQ(second.last_sweep_resumed_cells(), original->size());
  std::remove(config.journal_path.c_str());
}

TEST_F(JournalTest, AbortedSweepResumesByteIdentical) {
  ExperimentConfig config = SmallConfig();
  config.dataset_limit = 2;
  config.journal_path = JournalPath("journal_abort.jsonl");
  std::remove(config.journal_path.c_str());

  // Reference: the same sweep uninterrupted, without a journal.
  ExperimentConfig ref_config = config;
  ref_config.journal_path.clear();
  ExperimentRunner reference(ref_config);
  auto expected = reference.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 4u);

  // Kill the sweep on its third cell via an injected abort. The death
  // test's child process journals the first two cells, then dies.
  ExperimentConfig crash_config = config;
  crash_config.faults = "sweep.cell#3=abort";
  EXPECT_DEATH(
      {
        ExperimentRunner crashing(crash_config);
        (void)crashing.Sweep({"caml"}, {10.0, 30.0});
      },
      "injected abort");

  auto journal = ReadJournal(config.journal_path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->records.size(), 2u);

  // Restart with --resume: only the missing cells run; the record
  // stream is byte-identical to the uninterrupted sweep.
  ExperimentConfig resume_config = config;
  resume_config.resume = true;
  ExperimentRunner resumed(resume_config);
  auto records = resumed.Sweep({"caml"}, {10.0, 30.0});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(CompareRecords(*expected, *records).ToString(), "OK");
  EXPECT_EQ(resumed.last_sweep_resumed_cells(), 2u);
  std::remove(config.journal_path.c_str());
}

}  // namespace
}  // namespace green
