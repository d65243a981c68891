#ifndef GREEN_BENCH_UTIL_EXPERIMENT_H_
#define GREEN_BENCH_UTIL_EXPERIMENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "green/automl/askl_system.h"
#include "green/automl/automl_system.h"
#include "green/common/cancel.h"
#include "green/common/fault.h"
#include "green/common/knobs.h"
#include "green/common/retry.h"
#include "green/common/shard.h"
#include "green/data/amlb_suite.h"
#include "green/energy/machine_model.h"
#include "green/metaopt/tuned_config_store.h"
#include "green/ml/transform_cache.h"
#include "green/table/split.h"

namespace green {

/// Configuration shared by all paper-experiment benches.
///
/// Budgets are quoted in PAPER seconds (10/30/60/300); `budget_scale`
/// converts them to virtual seconds on the simulated machine so a full
/// sweep stays CI-grade. Reported seconds and kWh are scaled back to
/// paper scale (energy is approximately linear in time at fixed power),
/// keeping magnitudes comparable with the paper's charts.
struct ExperimentConfig {
  SimulationProfile profile = SimulationProfile::Fast();
  double budget_scale = 0.15;
  std::vector<double> paper_budgets = {10.0, 30.0, 60.0, 300.0};
  size_t dataset_limit = 8;  ///< 0 = all 39 tasks.
  int repetitions = 2;
  uint64_t seed = 42;
  MachineModel machine = MachineModel::XeonGold6132();
  int cores = 1;
  /// Host worker threads for Sweep (NOT the simulated `cores`): cells run
  /// concurrently on `jobs` threads, results stay in enumeration order.
  int jobs = 1;
  /// Multi-process sharding (GREEN_SHARD="i/n", CLI --shard i/n): cells
  /// keep their canonical enumeration order, and this process runs only
  /// the cells whose global index shard-index i of n owns (round-robin).
  /// Point each shard at its own journal and recombine them with
  /// MergeShardJournals / --merge-journals; the merged stream is
  /// byte-identical to an unsharded sweep. Defaults to unsharded.
  int shard_index = 0;
  int shard_count = 1;

  /// Per-cell retry policy for transient failures (max_attempts = 1
  /// disables retries). A retry re-runs the cell at once.
  RetryPolicy retry;
  /// Host wall-clock seconds a single cell may run, retries included:
  /// Sweep arms each cell's CancelToken with this deadline, and a cell
  /// that passes it unwinds at its next poll (recorded as a `timeout`).
  /// 0 = no limit.
  double cell_timeout_seconds = 0.0;
  /// Fault-injection spec (GREEN_FAULTS grammar, see common/fault.h).
  /// Empty = no injected faults.
  std::string faults;
  /// JSONL journal Sweep appends each completed cell to; empty disables
  /// journaling.
  std::string journal_path;
  /// With a journal: load cells already present in it instead of
  /// re-running them. Without: the journal is truncated at sweep start.
  bool resume = false;
  /// Copy per-scope energy breakdowns onto each RunRecord (CLI
  /// `--breakdown`, GREEN_SCOPES=1). Off by default so record streams
  /// written by the fig/table benches stay byte-identical to before the
  /// scope tree existed.
  bool collect_scopes = false;
  /// Memoize fitted transformer chains across search trials
  /// (GREEN_TRANSFORM_CACHE=0|1, CLI --transform-cache 0|1). Purely a
  /// host-time optimization: cache hits re-issue the fitted chain's
  /// charges, so records, energy totals, scope trees and the trace are
  /// bit-identical with the cache on or off.
  bool transform_cache = true;
  /// Transform-cache byte budget in MB (GREEN_TRANSFORM_CACHE_MB);
  /// LRU-evicts beyond it.
  double transform_cache_mb = 256.0;

  /// Assigns the fields whose knobs are set (GREEN_FULL selects the
  /// Full profile, all 39 tasks and 10 repetitions); every other field
  /// keeps its value. The CLI calls this with its flags laid over the
  /// environment.
  void Load(const KnobValues& knobs);

  /// Defaults with the GREEN_* environment loaded over them.
  static ExperimentConfig FromEnv();
};

/// One point on Sweep's per-cell option-override axis. A variant scales
/// the cell grid by a configuration dimension that is not (system,
/// dataset, budget, repetition): simulated core count (fig5) or CAML's
/// per-row inference-time constraint (fig6). The name becomes part of
/// the cell identity (RunRecord::variant, journal keys); run seeds stay
/// variant-independent, so two variants of the same cell share their
/// train/test split and search trajectory and differ only through the
/// overridden option — exactly the controlled comparison the figures
/// plot.
struct SweepVariant {
  /// Distinguishes the cell in records and journals; must be unique
  /// within one Sweep call. Empty = the default variant, whose records
  /// and journal keys are byte-identical to a variant-less sweep.
  std::string name;
  /// Simulated cores override; 0 keeps ExperimentConfig::cores.
  int cores = 0;
  /// CAML inference constraint (AutoMlOptions::
  /// max_inference_seconds_per_row); 0 = unconstrained.
  double max_inference_seconds_per_row = 0.0;
};

/// Where a cell ended up. Every enumerated cell gets exactly one record;
/// the outcome is the AMLB-style failure taxonomy.
enum class RunOutcome {
  kOk = 0,      ///< Measured successfully.
  kFailed,      ///< Errored (after exhausting retries if retryable).
  kTimeout,     ///< Passed its cell time limit or hit DEADLINE_EXCEEDED.
  kSkipped,     ///< Not applicable (unsupported budget, semantic reject).
};

const char* RunOutcomeName(RunOutcome outcome);
Result<RunOutcome> RunOutcomeFromName(const std::string& name);

/// Maps a Status to the taxonomy: DEADLINE_EXCEEDED -> timeout;
/// INVALID_ARGUMENT / UNIMPLEMENTED / FAILED_PRECONDITION -> skipped;
/// any other error -> failed. OK maps to ok.
RunOutcome OutcomeForStatus(const Status& status);

/// One row of a per-record energy breakdown: a stage-prefixed scope path
/// ("execution/caml/search/pipeline/fit/random_forest") and the dynamic
/// energy attributed to it, at the same scale as the record's headline
/// numbers (execution scopes at paper scale, inference scopes per
/// instance).
struct RunScope {
  std::string path;
  double kwh = 0.0;
  double seconds = 0.0;
  double flops = 0.0;
  uint64_t charges = 0;
};

/// One (system, dataset, budget, repetition) measurement.
struct RunRecord {
  std::string system;
  std::string dataset;
  double paper_budget_seconds = 0.0;
  int repetition = 0;

  /// Task of the dataset this cell ran on, plus the task's primary test
  /// metric (PrimaryMetricName). Always populated in memory; serialized
  /// ("task"/"metric"/"test_metric") only for regression cells, so every
  /// pre-existing classification record stream stays byte-identical.
  TaskType task = TaskType::kBinary;
  std::string metric_name = "balanced_accuracy";
  /// Primary test metric: equal to test_balanced_accuracy on
  /// classification; RMSE on regression.
  double test_metric = 0.0;

  double test_balanced_accuracy = 0.0;
  /// Execution stage, scaled back to paper scale.
  double execution_seconds = 0.0;
  double execution_kwh = 0.0;
  /// Inference on the held-out test set, per instance.
  double inference_kwh_per_instance = 0.0;
  double inference_seconds_per_instance = 0.0;
  size_t num_pipelines = 0;
  int pipelines_evaluated = 0;
  double best_validation_score = 0.0;

  /// Failure taxonomy. Non-ok records keep the metric fields at zero and
  /// carry the final error in `error`. `attempts` counts tries actually
  /// made (0 for cells skipped before any run).
  RunOutcome outcome = RunOutcome::kOk;
  std::string error;
  int attempts = 1;

  /// Per-scope dynamic-energy breakdown; populated only when
  /// ExperimentConfig::collect_scopes is set (the serialized record grows
  /// a "scopes" field only when non-empty).
  std::vector<RunScope> scopes;

  /// Sweep-variant name (empty outside the override axis). Part of the
  /// cell identity; serialized as "variant" only when non-empty so
  /// variant-less records stay byte-identical to before the axis
  /// existed.
  std::string variant;

  /// Global enumeration index of the cell within its sweep. Stamped
  /// (>= 0) only by sharded sweeps, where the journal merge needs it to
  /// restore canonical order across shard files; -1 (not serialized)
  /// everywhere else, and cleared again by MergeShardJournals so the
  /// merged stream is byte-identical to an unsharded sweep's records.
  int64_t cell_index = -1;

  bool ok() const { return outcome == RunOutcome::kOk; }
};

/// Canonical "system|dataset|budget|rep[|variant]" key identifying a
/// sweep cell in journals, resume matching, and compaction. The variant
/// segment appears only when non-empty, so keys of variant-less cells
/// are unchanged from before the override axis existed.
std::string RunRecordCellKey(const RunRecord& record);
std::string RunRecordCellKey(const std::string& system,
                             const std::string& dataset, double budget,
                             int repetition,
                             const std::string& variant = std::string());

/// Names accepted by MakeSystem / RunOne.
const std::vector<std::string>& AllSystemNames();

/// Runs paper experiments: constructs systems by name, instantiates AMLB
/// tasks, meters execution and inference separately, scales readings back
/// to paper scale.
///
/// Thread safety: RunOne/RunCell are safe to call concurrently from
/// multiple threads (Sweep does so when config.jobs > 1). Every run gets
/// its own clock/context/meter; the shared EnergyModel and
/// TunedConfigStore are strictly read-only, the ASKL meta-store is built
/// under a mutex (a failed build retries on the next call instead of
/// being memoized forever), and the development-energy accumulator is
/// atomic.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(const ExperimentConfig& config);

  /// The instantiated evaluation suite (possibly limited).
  const std::vector<Dataset>& suite() const { return suite_; }

  /// Replaces the evaluation suite — e.g. with synthetic regression or
  /// k-class tasks for the mixed-task bench. Each dataset carries its own
  /// TaskType; cells dispatch on it per dataset, so one sweep can mix
  /// tasks freely.
  void SetSuite(std::vector<Dataset> suite) { suite_ = std::move(suite); }

  /// Runs one (system, dataset, budget, repetition) attempt. `cancel`
  /// (optional) is polled by the system's search loop; `attempt` keys the
  /// fault-injection scope so each retry redraws its probabilistic
  /// faults. `variant` (optional) applies a per-cell option override, such
  /// as the simulated core count, and stamps RunRecord::variant.
  Result<RunRecord> RunOne(const std::string& system_name,
                           const Dataset& dataset, double paper_budget,
                           int repetition,
                           const CancelToken* cancel = nullptr,
                           int attempt = 1,
                           const SweepVariant* variant = nullptr);

  /// Runs one cell through the full fault-tolerance path: the min-budget
  /// gate (-> skipped), the retry policy for transient errors, and the
  /// outcome taxonomy. Never fails — an errored cell comes back as a
  /// non-ok record.
  RunRecord RunCell(const std::string& system_name, const Dataset& dataset,
                    double paper_budget, int repetition,
                    const CancelToken* cancel = nullptr,
                    const SweepVariant* variant = nullptr);

  /// Full sweep over the suite for the given systems and budgets.
  /// Returns one record per enumerated cell — including skipped, failed,
  /// and timed-out cells — in enumeration order (system, budget, dataset,
  /// repetition). With config.jobs > 1 the cells execute on that many
  /// host worker threads; run seeds and fault draws are cell-local, so
  /// the records are bit-identical to the sequential sweep.
  ///
  /// With config.journal_path set, each completed cell is appended to the
  /// JSONL journal as it finishes; with config.resume additionally set,
  /// cells already present in the journal are loaded instead of re-run,
  /// and the returned stream is byte-identical to an uninterrupted sweep.
  ///
  /// With config.shard_count > 1, only the cells this process's shard
  /// owns are run (and returned, in enumeration order); the journals of
  /// all shards recombine through MergeShardJournals into the unsharded
  /// record stream. --resume applies per shard, unchanged.
  Result<std::vector<RunRecord>> Sweep(
      const std::vector<std::string>& systems,
      const std::vector<double>& paper_budgets);

  /// Sweep with a per-cell option-override axis: the cell grid becomes
  /// (system, budget, variant, dataset, repetition), every variant
  /// inheriting retry, fault injection, the cell time limit, journaling and
  /// sharding exactly like the default axis. Variant names must be
  /// unique (duplicates would collide in journals); the plain overload
  /// is this one with the single default variant.
  Result<std::vector<RunRecord>> Sweep(
      const std::vector<std::string>& systems,
      const std::vector<double>& paper_budgets,
      const std::vector<SweepVariant>& variants);

  /// Minimum supported paper budget, as declared by the system itself
  /// (AutoMlSystem::MinBudgetSeconds: 30 s for ASKL, 60 s for TPOT) —
  /// cells below it are recorded as `skipped` like the paper does.
  /// Unknown systems report 0 (the cell surfaces the NotFound as failed).
  double MinBudget(const std::string& system_name) const;

  const ExperimentConfig& config() const { return config_; }

  /// Development-stage energy spent inside this runner so far (meta-store
  /// construction for autosklearn2), at paper scale.
  double development_kwh() const { return development_kwh_.load(); }

  /// Real (host) wall-clock seconds of the most recent Sweep, for
  /// reporting parallel speedup. 0 before the first sweep.
  double last_sweep_wall_seconds() const {
    return last_sweep_wall_seconds_;
  }

  /// Cells loaded from the journal (not re-run) in the most recent Sweep.
  size_t last_sweep_resumed_cells() const {
    return last_sweep_resumed_cells_;
  }

  /// Records the most recent Sweep could not append to its journal even
  /// after the end-of-sweep retry pass. Non-zero means the journal on
  /// disk is NOT a complete transcript of the sweep (an incompleteness
  /// marker is left in it, best-effort, so later --resume runs refuse to
  /// claim completeness).
  size_t last_sweep_journal_append_failures() const {
    return last_sweep_journal_append_failures_;
  }

  /// True iff the most recent Sweep resumed from a journal carrying an
  /// incompleteness marker (a previous run lost appends): the loaded
  /// cells are trusted individually, but the journal as a whole was not
  /// treated as complete and missing cells were re-run.
  bool last_sweep_resumed_from_incomplete_journal() const {
    return last_sweep_resumed_from_incomplete_journal_;
  }

  /// Builds a system instance; `budget` selects CAML(tuned) parameters.
  Result<std::unique_ptr<AutoMlSystem>> MakeSystem(
      const std::string& system_name, double paper_budget);

  /// Hit/miss/eviction counters of the runner's transform cache (all
  /// zero when config.transform_cache is off).
  TransformCacheStats transform_cache_stats() const {
    return transform_cache_.Stats();
  }

 private:
  Status EnsureMetaStore();

  ExperimentConfig config_;
  EnergyModel energy_model_;
  std::vector<Dataset> suite_;
  TunedConfigStore tuned_store_;
  std::mutex meta_mutex_;
  /// Shared with the process-wide AsklMetaStoreCache: runners with
  /// identical build inputs reuse one immutable store.
  std::shared_ptr<const AsklMetaStore> meta_store_;
  FaultInjector faults_;
  /// Shared by all cells this runner executes (thread-safe; Sweep workers
  /// hit it concurrently).
  TransformCache transform_cache_;
  std::atomic<double> development_kwh_{0.0};
  double last_sweep_wall_seconds_ = 0.0;
  size_t last_sweep_resumed_cells_ = 0;
  size_t last_sweep_journal_append_failures_ = 0;
  bool last_sweep_resumed_from_incomplete_journal_ = false;
};

/// bench/serve_trace's deployment: the 600-row 3-class "serve-bench" task
/// (12 features, 3 of them categorical) split 66/34, and the autogluon
/// artifact fitted on its train split at the 60 s paper budget, charged to
/// `ctx`. The serving bench, the stacked-predict microbench and the
/// small-batch artifact test all serve this one deployment.
struct ServeDeployment {
  TrainTestData data;
  FittedArtifact artifact;
};
Result<ServeDeployment> FitServeDeployment(const ExperimentConfig& config,
                                           ExecutionContext* ctx);

}  // namespace green

#endif  // GREEN_BENCH_UTIL_EXPERIMENT_H_
