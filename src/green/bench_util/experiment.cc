#include "green/bench_util/experiment.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <optional>

#include "green/automl/askl_meta_cache.h"
#include "green/automl/autopt_system.h"
#include "green/automl/caml_system.h"
#include "green/automl/flaml_system.h"
#include "green/automl/gluon_system.h"
#include "green/automl/random_search_system.h"
#include "green/automl/tabpfn_system.h"
#include "green/automl/tpot_system.h"
#include "green/bench_util/record_io.h"
#include "green/common/logging.h"
#include "green/common/stringutil.h"
#include "green/common/thread_pool.h"
#include "green/data/meta_corpus.h"
#include "green/data/synthetic.h"
#include "green/ml/metrics.h"
#include "green/table/split.h"

namespace green {

void ExperimentConfig::Load(const KnobValues& knobs) {
  if (knobs.Get<bool>(knob::kFull).value_or(false)) {
    profile = SimulationProfile::Full();
    dataset_limit = 0;  // All 39 tasks.
    repetitions = profile.repetitions;
  }
  if (std::optional<int> threads = knobs.Get<int>(knob::kJobs)) {
    jobs = *threads == 0 ? ThreadPool::DefaultThreads() : *threads;
  }
  knobs.Assign(knob::kFaults, &faults);
  knobs.Assign(knob::kJournal, &journal_path);
  knobs.Assign(knob::kResume, &resume);
  knobs.Assign(knob::kRetries, &retry.max_attempts);
  knobs.Assign(knob::kCellTimeout, &cell_timeout_seconds);
  knobs.Assign(knob::kScopes, &collect_scopes);
  knobs.Assign(knob::kTransformCache, &transform_cache);
  knobs.Assign(knob::kTransformCacheMb, &transform_cache_mb);
  if (std::optional<ShardSpec> shard = knobs.Get<ShardSpec>(knob::kShard)) {
    shard_index = shard->index;
    shard_count = shard->count;
  }
}

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  config.Load(KnobValues::FromEnv());
  return config;
}

/// Indexed by RunOutcome.
constexpr const char* kOutcomeNames[] = {"ok", "failed", "timeout",
                                         "skipped"};

const char* RunOutcomeName(RunOutcome outcome) {
  return kOutcomeNames[static_cast<size_t>(outcome)];
}

Result<RunOutcome> RunOutcomeFromName(const std::string& name) {
  for (size_t i = 0; i < std::size(kOutcomeNames); ++i) {
    if (name == kOutcomeNames[i]) return static_cast<RunOutcome>(i);
  }
  return Status::InvalidArgument("unknown outcome: " + name);
}

RunOutcome OutcomeForStatus(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return RunOutcome::kOk;
    case Status::Code::kDeadlineExceeded:
      return RunOutcome::kTimeout;
    case Status::Code::kInvalidArgument:
    case Status::Code::kUnimplemented:
    case Status::Code::kFailedPrecondition:
      return RunOutcome::kSkipped;
    default:
      return RunOutcome::kFailed;
  }
}

ExperimentRunner::ExperimentRunner(const ExperimentConfig& config)
    : config_(config),
      energy_model_(config.machine),
      tuned_store_(TunedConfigStore::PaperDefaults()),
      faults_(FaultInjector::Lenient(config.faults,
                                     HashCombine(config.seed, 0xfa17))),
      transform_cache_(static_cast<size_t>(
          std::max(1.0, config.transform_cache_mb) * 1024.0 * 1024.0)) {
  auto suite = InstantiateAmlbSuite(config_.profile, config_.seed,
                                    config_.dataset_limit);
  GREEN_CHECK(suite.ok());
  suite_ = std::move(suite).value();
}

namespace {

using SystemPtr = std::unique_ptr<AutoMlSystem>;

/// What MakeSystem resolves before a system is built.
enum class Needs { kNothing, kTunedParams, kMetaStore };

/// One AutoML system. `make` takes the tuned parameters (read by
/// caml_tuned) and the meta-store (read by the ASKL rows); defaults and
/// nullptr build a system whose declared properties (MinBudgetSeconds
/// etc.) are exact without reading a tuned config or building the
/// meta-store.
struct SystemEntry {
  const char* name;
  Needs needs;
  SystemPtr (*make)(const CamlParams& tuned, const AsklMetaStore* meta_store);
};

template <typename System>
SystemPtr MakeDefault(const CamlParams&, const AsklMetaStore*) {
  return std::make_unique<System>();
}

template <bool kWarmStart>
SystemPtr MakeAskl(const CamlParams&, const AsklMetaStore* meta_store) {
  return std::make_unique<AsklSystem>(AsklParams{.warm_start = kWarmStart},
                                      meta_store);
}

/// One row per system, in AllSystemNames() order.
constexpr SystemEntry kSystems[] = {
    {"tabpfn", Needs::kNothing, MakeDefault<TabPfnSystem>},
    {"caml", Needs::kNothing, MakeDefault<CamlSystem>},
    {"caml_tuned", Needs::kTunedParams,
     [](const CamlParams& tuned, const AsklMetaStore*) -> SystemPtr {
       return std::make_unique<CamlSystem>(tuned, "caml_tuned");
     }},
    {"flaml", Needs::kNothing, MakeDefault<FlamlSystem>},
    {"autogluon", Needs::kNothing, MakeDefault<GluonSystem>},
    {"autogluon_refit", Needs::kNothing,
     [](const CamlParams&, const AsklMetaStore*) -> SystemPtr {
       return std::make_unique<GluonSystem>(
           GluonParams{.refit_for_inference = true});
     }},
    {"autosklearn1", Needs::kMetaStore, MakeAskl</*kWarmStart=*/false>},
    {"autosklearn2", Needs::kMetaStore, MakeAskl</*kWarmStart=*/true>},
    {"tpot", Needs::kNothing, MakeDefault<TpotSystem>},
    {"random_search", Needs::kNothing, MakeDefault<RandomSearchSystem>},
    {"autopt", Needs::kNothing, MakeDefault<AutoPtSystem>},
};

/// The row named `name`, or nullptr.
const SystemEntry* FindSystem(const std::string& name) {
  for (const SystemEntry& entry : kSystems) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

/// Copies `reading`'s scope tree onto `record` as "<stage>/<path>" rows
/// in paper-scale units, divided by `per` instances (1 for execution).
void AppendScopeRows(const EnergyReading& reading, const std::string& stage,
                     double per, double budget_scale, RunRecord* record) {
  for (const auto& [path, charge] : reading.scopes) {
    RunScope row;
    row.path = stage + "/" + path;
    row.kwh = charge.kwh() / per / budget_scale;
    row.seconds = charge.seconds / per / budget_scale;
    row.flops = charge.flops / per;
    row.charges = charge.charges;
    record->scopes.push_back(std::move(row));
  }
}

/// A record carrying only the cell's identity: system, dataset, budget,
/// repetition, task, metric and variant.
RunRecord CellRecord(const std::string& system, const Dataset& dataset,
                     double paper_budget, int repetition,
                     const SweepVariant* variant) {
  RunRecord record;
  record.system = system;
  record.dataset = dataset.name();
  record.paper_budget_seconds = paper_budget;
  record.repetition = repetition;
  record.task = dataset.task();
  record.metric_name = PrimaryMetricName(dataset.task());
  if (variant != nullptr) record.variant = variant->name;
  return record;
}

}  // namespace

const std::vector<std::string>& AllSystemNames() {
  static const std::vector<std::string>* kNames = [] {
    auto* names = new std::vector<std::string>;
    for (const SystemEntry& entry : kSystems) names->push_back(entry.name);
    return names;
  }();
  return *kNames;
}

std::string RunRecordCellKey(const std::string& system,
                             const std::string& dataset, double budget,
                             int repetition, const std::string& variant) {
  std::string key = StrFormat("%s|%s|%.6g|%d", system.c_str(),
                              dataset.c_str(), budget, repetition);
  if (!variant.empty()) {
    key += '|';
    key += variant;
  }
  return key;
}

std::string RunRecordCellKey(const RunRecord& record) {
  return RunRecordCellKey(record.system, record.dataset,
                          record.paper_budget_seconds, record.repetition,
                          record.variant);
}

double ExperimentRunner::MinBudget(const std::string& system_name) const {
  // Single source of truth: the system's own declaration, so harness
  // gating can never drift from AutoMlSystem::MinBudgetSeconds().
  const SystemEntry* entry = FindSystem(system_name);
  if (entry == nullptr) return 0.0;  // RunOne reports the NotFound per cell.
  return entry->make(CamlParams(), /*meta_store=*/nullptr)
      ->MinBudgetSeconds();
}

Status ExperimentRunner::EnsureMetaStore() {
  // ASKL2's warm start is meta-learned on a repository of pre-searched
  // datasets; the cost is charged to the development stage (the paper:
  // 140 datasets x 24 h of offline search). Resolved once per runner
  // under a mutex — concurrent sweep workers hitting ASKL cells block
  // until the store (and its development-energy charge) is ready. The
  // store itself comes from the process-wide AsklMetaStoreCache: it is a
  // pure function of the build inputs below, so fig/table binaries and
  // tests constructing many runners build it once. A FAILED build is NOT
  // memoized: the next caller rebuilds, so a transient fault recovered
  // by the retry policy does not poison every later ASKL cell.
  std::lock_guard<std::mutex> lock(meta_mutex_);
  if (meta_store_ != nullptr) return Status::Ok();
  // Fault injection stays ahead of the cache lookup: a runner configured
  // to fail the build must fail even when another runner already cached
  // the store.
  GREEN_RETURN_IF_ERROR(faults_.Check("askl.metastore.build"));

  const SimulationProfile& p = config_.profile;
  const std::string key = StrFormat(
      "seed=%llu|machine=%s|cores=%d|"
      "profile=%zu:%zu:%zu:%zu:%d:%.6g:%.6g",
      static_cast<unsigned long long>(config_.seed),
      config_.machine.name.c_str(), config_.cores, p.max_rows, p.min_rows,
      p.max_features, p.min_features, p.max_classes, p.row_scale,
      p.feature_scale);
  GREEN_ASSIGN_OR_RETURN(
      AsklMetaStoreCache::Entry entry,
      AsklMetaStoreCache::Instance().GetOrBuild(
          key, [&]() -> Result<AsklMetaStoreCache::Entry> {
            MetaCorpusOptions corpus_options;
            corpus_options.num_datasets = 16;
            corpus_options.seed = HashCombine(config_.seed, 0x5743);
            GREEN_ASSIGN_OR_RETURN(
                std::vector<Dataset> corpus,
                GenerateMetaCorpus(corpus_options, config_.profile));

            VirtualClock clock;
            ExecutionContext ctx(&clock, &energy_model_, config_.cores);
            EnergyMeter meter(&energy_model_);
            meter.Start(clock.Now());
            ctx.SetMeter(&meter);
            GREEN_ASSIGN_OR_RETURN(
                AsklMetaStore store,
                AsklMetaStore::BuildFromCorpus(
                    corpus, /*evals_per_dataset=*/6,
                    HashCombine(config_.seed, 0x5744), &ctx));
            AsklMetaStoreCache::Entry built;
            built.store =
                std::make_shared<const AsklMetaStore>(std::move(store));
            // Cache the RAW virtual-scale kWh; each runner rescales by
            // its own budget_scale below.
            built.development_kwh = meter.Stop(clock.Now()).kwh();
            return built;
          }));
  development_kwh_.fetch_add(entry.development_kwh / config_.budget_scale);
  meta_store_ = entry.store;
  return Status::Ok();
}

Result<std::unique_ptr<AutoMlSystem>> ExperimentRunner::MakeSystem(
    const std::string& system_name, double paper_budget) {
  const SystemEntry* entry = FindSystem(system_name);
  if (entry == nullptr) {
    return Status::NotFound("unknown system: " + system_name);
  }
  CamlParams tuned;
  if (entry->needs == Needs::kTunedParams) {
    GREEN_ASSIGN_OR_RETURN(tuned, tuned_store_.Get(paper_budget));
  }
  const AsklMetaStore* meta_store = nullptr;
  if (entry->needs == Needs::kMetaStore) {
    GREEN_RETURN_IF_ERROR(EnsureMetaStore());
    meta_store = meta_store_.get();
  }
  return entry->make(tuned, meta_store);
}

Result<RunRecord> ExperimentRunner::RunOne(const std::string& system_name,
                                           const Dataset& dataset,
                                           double paper_budget,
                                           int repetition,
                                           const CancelToken* cancel,
                                           int attempt,
                                           const SweepVariant* variant) {
  RunRecord record =
      CellRecord(system_name, dataset, paper_budget, repetition, variant);
  // Probabilistic fault draws inside this attempt are keyed by the cell
  // AND the attempt, so a retry re-rolls the dice instead of
  // deterministically re-hitting the same injected failure. (Cell key
  // first, then attempt — for variant-less cells this is the same
  // "system|dataset|budget|rep|attempt" string as before the variant
  // axis existed.)
  FaultScope fault_scope(RunRecordCellKey(record) +
                         StrFormat("|%d", attempt));

  GREEN_ASSIGN_OR_RETURN(std::unique_ptr<AutoMlSystem> system,
                         MakeSystem(system_name, paper_budget));
  // Maps to a skipped cell (same taxonomy as unsupported budgets).
  GREEN_RETURN_IF_ERROR(CheckTaskSupported(*system, dataset.task()));

  const uint64_t run_seed =
      HashCombine(HashCombine(config_.seed, repetition + 1),
                  HashCombine(HashString(system_name.c_str()),
                              HashString(dataset.name().c_str())));

  // The paper's outer protocol: 66/34 train/test split per dataset
  // (stratified on classification, plain on regression).
  Rng rng(run_seed);
  TrainTestIndices split = SplitForTask(dataset, 0.66, &rng);
  TrainTestData data = Materialize(dataset, split);

  // The simulated core count: the variant's override, else the config
  // default. The run seed above is deliberately independent of both —
  // variants of one cell share their split and search trajectory.
  const int effective_cores = variant != nullptr && variant->cores > 0
                                  ? variant->cores
                                  : config_.cores;
  VirtualClock clock;
  ExecutionContext ctx(&clock, &energy_model_, effective_cores);
  ctx.SetCancelToken(cancel);
  if (config_.transform_cache) ctx.SetTransformCache(&transform_cache_);

  AutoMlOptions options;
  options.search_budget_seconds = paper_budget * config_.budget_scale;
  options.cores = ctx.cores();
  options.seed = run_seed;
  if (variant != nullptr && variant->max_inference_seconds_per_row > 0.0) {
    options.max_inference_seconds_per_row =
        variant->max_inference_seconds_per_row;
  }

  GREEN_RETURN_IF_ERROR(faults_.Check("run.fit"));
  GREEN_ASSIGN_OR_RETURN(AutoMlRunResult run,
                         system->Fit(data.train, options, &ctx));

  record.execution_seconds = run.actual_seconds / config_.budget_scale;
  record.execution_kwh = run.execution.kwh() / config_.budget_scale;
  record.num_pipelines = run.artifact.NumPipelines();
  record.pipelines_evaluated = run.pipelines_evaluated;
  record.best_validation_score = run.best_validation_score;
  record.attempts = attempt;
  if (config_.collect_scopes) {
    // Scope rows carry the same paper-scale units as execution_kwh /
    // execution_seconds; FLOPs are counted work and need no rescaling.
    AppendScopeRows(run.execution, "execution", 1.0, config_.budget_scale,
                    &record);
  }

  // Inference stage: metered separately, normalized per instance.
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::DeadlineExceeded(system_name +
                                    ": cancelled before inference");
  }
  GREEN_RETURN_IF_ERROR(faults_.Check("run.predict"));
  EnergyMeter inference_meter(&energy_model_);
  inference_meter.Start(clock.Now());
  ctx.SetMeter(&inference_meter);
  const bool regression = data.test.task() == TaskType::kRegression;
  std::vector<int> preds;
  ProbaMatrix test_values;
  if (regression) {
    // Class-label prediction is undefined for regression; score the raw
    // predicted values (column 0) against the targets instead.
    GREEN_ASSIGN_OR_RETURN(test_values,
                           run.artifact.PredictProba(data.test, &ctx));
  } else {
    GREEN_ASSIGN_OR_RETURN(preds, run.artifact.Predict(data.test, &ctx));
  }
  const EnergyReading inference = inference_meter.Stop(clock.Now());
  ctx.SetMeter(nullptr);

  const double n_test = static_cast<double>(data.test.num_rows());
  record.inference_kwh_per_instance =
      n_test > 0 ? inference.kwh() / n_test / config_.budget_scale : 0.0;
  record.inference_seconds_per_instance =
      n_test > 0 ? inference.seconds / n_test / config_.budget_scale
                 : 0.0;
  if (config_.collect_scopes && n_test > 0) {
    // Inference scopes are normalized per test instance, like the
    // headline inference_kwh_per_instance.
    AppendScopeRows(inference, "inference", n_test, config_.budget_scale,
                    &record);
  }
  if (regression) {
    record.test_metric = PrimaryMetric(data.test, test_values);  // RMSE.
  } else {
    record.test_balanced_accuracy = BalancedAccuracy(
        data.test.labels(), preds, data.test.num_classes());
    record.test_metric = record.test_balanced_accuracy;
  }
  return record;
}

RunRecord ExperimentRunner::RunCell(const std::string& system_name,
                                    const Dataset& dataset,
                                    double paper_budget, int repetition,
                                    const CancelToken* cancel,
                                    const SweepVariant* variant) {
  RunRecord record =
      CellRecord(system_name, dataset, paper_budget, repetition, variant);

  // The paper's protocol: systems whose minimum supported search time
  // exceeds the cell's budget are not run at all (ASKL below 30 s, TPOT
  // below 60 s). Recorded, not dropped — the skip is data.
  if (paper_budget < MinBudget(system_name)) {
    record.outcome = RunOutcome::kSkipped;
    record.error = StrFormat("%s: budget %.6gs below system minimum %.6gs",
                             system_name.c_str(), paper_budget,
                             MinBudget(system_name));
    record.attempts = 0;
    return record;
  }

  // Retries re-run at once: each attempt gets a fresh virtual clock, so
  // waiting between attempts would change nothing a record holds.
  int attempt = 0;
  while (true) {
    ++attempt;
    Result<RunRecord> run = RunOne(system_name, dataset, paper_budget,
                                   repetition, cancel, attempt, variant);
    if (run.ok()) {
      record = std::move(run).value();
      record.outcome = RunOutcome::kOk;
      record.error.clear();
      record.attempts = attempt;
      return record;
    }
    const Status& status = run.status();
    const RunOutcome outcome = OutcomeForStatus(status);
    const bool cancelled = cancel != nullptr && cancel->cancelled();
    if (outcome == RunOutcome::kFailed && IsRetryable(status) &&
        attempt < config_.retry.max_attempts && !cancelled) {
      LogDebug(StrFormat("retrying %s on %s (attempt %d/%d): %s",
                         system_name.c_str(), dataset.name().c_str(),
                         attempt + 1, config_.retry.max_attempts,
                         status.ToString().c_str()));
      continue;
    }
    record.outcome = outcome;
    record.error = status.ToString();
    record.attempts = attempt;
    return record;
  }
}

Result<std::vector<RunRecord>> ExperimentRunner::Sweep(
    const std::vector<std::string>& systems,
    const std::vector<double>& paper_budgets) {
  return Sweep(systems, paper_budgets,
               std::vector<SweepVariant>{SweepVariant{}});
}

Result<std::vector<RunRecord>> ExperimentRunner::Sweep(
    const std::vector<std::string>& systems,
    const std::vector<double>& paper_budgets,
    const std::vector<SweepVariant>& variants) {
  if (variants.empty()) {
    return Status::InvalidArgument("Sweep: empty variant list");
  }
  {
    std::map<std::string, int> seen;
    for (const SweepVariant& variant : variants) {
      if (++seen[variant.name] > 1) {
        return Status::InvalidArgument(
            "Sweep: duplicate variant name \"" + variant.name +
            "\" (names are part of the cell identity)");
      }
    }
  }
  const ShardSpec shard{config_.shard_index, config_.shard_count};
  if (!shard.valid()) {
    return Status::InvalidArgument("Sweep: invalid shard spec " +
                                   shard.ToString());
  }

  // Enumerate every cell up front in the canonical (system, budget,
  // variant, dataset, repetition) order — including cells below a
  // system's minimum budget, which come back as `skipped` records. Run
  // seeds and fault draws depend only on the cell, never on execution
  // order, so the parallel path below is bit-identical to running this
  // list sequentially. Under sharding the enumeration (and therefore
  // every cell's global index) is identical in all shard processes; this
  // process keeps only the cells its shard owns. Ownership is
  // round-robin (index % count) rather than contiguous slices because
  // enumeration is system-major — a contiguous split would hand one
  // shard all of the cheapest system's cells.
  struct Cell {
    const std::string* system;
    double budget;
    const SweepVariant* variant;
    const Dataset* dataset;
    int rep;
    int64_t index;  ///< Global enumeration index, identical across shards.
  };
  std::vector<Cell> cells;
  int64_t total_cells = 0;
  for (const std::string& system : systems) {
    for (double budget : paper_budgets) {
      for (const SweepVariant& variant : variants) {
        for (const Dataset& dataset : suite_) {
          for (int rep = 0; rep < config_.repetitions; ++rep) {
            const int64_t index = total_cells++;
            if (!shard.Owns(index)) continue;
            cells.push_back(
                Cell{&system, budget, &variant, &dataset, rep, index});
          }
        }
      }
      // TabPFN has no search-time parameter: one budget point suffices.
      if (system == "tabpfn") break;
    }
  }

  // Journal bootstrap. Resume loads completed cells keyed by
  // (system, dataset, budget, rep[, variant]); a fresh journaled sweep
  // truncates.
  std::map<std::string, RunRecord> journaled;
  last_sweep_resumed_cells_ = 0;
  last_sweep_journal_append_failures_ = 0;
  last_sweep_resumed_from_incomplete_journal_ = false;
  if (!config_.journal_path.empty()) {
    if (config_.resume) {
      GREEN_ASSIGN_OR_RETURN(JournalContents previous,
                             ReadJournal(config_.journal_path));
      if (previous.append_failures > 0) {
        // A previous sweep lost appends: each journaled record is still
        // individually trustworthy, but the journal as a whole must not
        // be treated as a complete transcript — any cell it is missing
        // re-runs below.
        last_sweep_resumed_from_incomplete_journal_ = true;
        LogWarning(StrFormat(
            "journal %s is marked incomplete (%zu append(s) lost by a "
            "previous sweep): resuming the cells it holds, re-running "
            "the rest",
            config_.journal_path.c_str(), previous.append_failures));
      }
      // Repeated resume cycles can journal the same cell several times
      // (a cell re-run after a crash mid-append). Later lines supersede
      // earlier ones, matching the order Sweep appended them.
      size_t superseded = 0;
      for (RunRecord& record : previous.records) {
        const auto inserted = journaled.insert_or_assign(
            RunRecordCellKey(record), std::move(record));
        if (!inserted.second) ++superseded;
      }
      if (superseded > 0) {
        LogInfo(StrFormat(
            "journal %s: %zu superseded record(s); run --compact-journal "
            "to rewrite it deduplicated",
            config_.journal_path.c_str(), superseded));
      }
    } else {
      GREEN_RETURN_IF_ERROR(WriteRecordsJsonl({}, config_.journal_path));
    }
  }

  const int jobs =
      std::min<int>(std::max(1, config_.jobs),
                    static_cast<int>(std::max<size_t>(1, cells.size())));
  std::vector<std::optional<RunRecord>> slots(cells.size());

  std::mutex journal_mutex;
  /// Slot indices whose journal append failed; retried once at sweep
  /// end. Guarded by journal_mutex.
  std::vector<size_t> failed_appends;
  std::atomic<size_t> resumed{0};
  const auto start = std::chrono::steady_clock::now();
  ParallelFor(cells.size(), jobs, [&](size_t i) {
    const Cell& cell = cells[i];
    const std::string key =
        RunRecordCellKey(*cell.system, cell.dataset->name(), cell.budget,
                         cell.rep, cell.variant->name);

    auto journaled_cell = journaled.find(key);
    if (journaled_cell != journaled.end()) {
      slots[i].emplace(journaled_cell->second);
      // The stamp is recomputed rather than trusted from the file: the
      // enumeration here is the one the merge must agree with.
      slots[i]->cell_index = shard.count > 1 ? cell.index : -1;
      resumed.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    // `sweep.cell` is the per-cell injection site the crash/resume tests
    // use (kind=abort kills the process mid-sweep with the journal
    // holding only the cells finished so far). Scoped to the cell so
    // probabilistic draws are jobs-independent.
    {
      FaultScope scope("sweep.cell|" + key);
      const Status injected = faults_.Check("sweep.cell");
      if (!injected.ok()) {
        RunRecord record = CellRecord(*cell.system, *cell.dataset,
                                      cell.budget, cell.rep, cell.variant);
        record.outcome = OutcomeForStatus(injected);
        record.error = injected.ToString();
        record.attempts = 0;
        if (shard.count > 1) record.cell_index = cell.index;
        slots[i].emplace(std::move(record));
        return;
      }
    }

    // The host time limit is a deadline on the cell's token, armed here
    // so it covers every retry; the search-loop heads and charge slices
    // that poll the token enforce it. No limit, no token: polls stay free.
    const bool limited = config_.cell_timeout_seconds > 0.0;
    CancelToken token;
    if (limited) token.CancelAfter(config_.cell_timeout_seconds);
    RunRecord record =
        RunCell(*cell.system, *cell.dataset, cell.budget, cell.rep,
                limited ? &token : nullptr, cell.variant);
    if (shard.count > 1) record.cell_index = cell.index;

    if (!config_.journal_path.empty()) {
      // `journal.append` makes append failures injectable (disk full,
      // permissions yanked mid-sweep). Cell-scoped so probabilistic
      // draws are jobs-independent.
      Status appended;
      {
        FaultScope scope("journal.append|" + key);
        appended = faults_.Check("journal.append");
      }
      std::lock_guard<std::mutex> lock(journal_mutex);
      if (appended.ok()) {
        appended = AppendRecordJsonl(record, config_.journal_path);
      }
      if (!appended.ok()) {
        // The sweep's results are still intact in memory; losing journal
        // durability is worth a warning, not a failed sweep — but it
        // must be COUNTED, or a later --resume would mistake the journal
        // for a complete transcript.
        LogWarning("journal append failed: " + appended.ToString() +
                   " (will retry at sweep end)");
        failed_appends.push_back(i);
      }
    }
    slots[i].emplace(std::move(record));
  });

  last_sweep_wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  // Collect in enumeration order, independent of completion order.
  std::vector<RunRecord> records;
  records.reserve(cells.size());
  size_t ok_cells = 0, failed = 0, timeouts = 0, skipped = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    RunRecord& record = *slots[i];
    switch (record.outcome) {
      case RunOutcome::kOk:
        ++ok_cells;
        break;
      case RunOutcome::kFailed:
        ++failed;
        break;
      case RunOutcome::kTimeout:
        ++timeouts;
        break;
      case RunOutcome::kSkipped:
        ++skipped;
        break;
    }
    if (!record.ok() && record.outcome != RunOutcome::kSkipped) {
      LogWarning(StrFormat("cell %s on %s [%.6gs rep %d]: %s (%s, %d "
                           "attempt(s))",
                           record.system.c_str(), record.dataset.c_str(),
                           record.paper_budget_seconds, record.repetition,
                           RunOutcomeName(record.outcome),
                           record.error.c_str(), record.attempts));
    }
    records.push_back(std::move(record));
  }
  last_sweep_resumed_cells_ = resumed.load(std::memory_order_relaxed);
  const size_t journal_orphans =
      journaled.size() - last_sweep_resumed_cells_;
  if (journal_orphans > 0) {
    LogWarning(StrFormat(
        "journal has %zu record(s) matching no enumerated cell",
        journal_orphans));
  }

  // End-of-sweep retry for failed appends: a transient failure (brief
  // disk-full, single-shot injected fault) recovers here; persistent
  // ones are counted lost and flagged in the journal itself so a later
  // --resume cannot mistake it for a complete transcript.
  size_t lost_appends = 0;
  for (size_t i : failed_appends) {
    Status retried;
    {
      // Same site as the first attempt — a persistent injected fault
      // (probability 1) fails the retry too; a single-shot `#n` clause
      // has been consumed and lets it through. Re-scoped so
      // probabilistic draws re-roll.
      FaultScope scope("journal.append|" + RunRecordCellKey(records[i]) +
                       "|retry");
      retried = faults_.Check("journal.append");
    }
    if (retried.ok()) {
      retried = AppendRecordJsonl(records[i], config_.journal_path);
    }
    if (!retried.ok()) {
      ++lost_appends;
      LogWarning("journal append retry failed: " + retried.ToString());
    }
  }
  last_sweep_journal_append_failures_ = lost_appends;
  if (lost_appends > 0) {
    const Status marker = AppendJournalIncompleteMarker(
        lost_appends, config_.journal_path);
    LogWarning(StrFormat(
        "journal %s is NOT a complete transcript: %zu record(s) lost%s",
        config_.journal_path.c_str(), lost_appends,
        marker.ok() ? " (incompleteness marker appended)"
                    : "; marking it incomplete ALSO failed"));
  } else if (last_sweep_resumed_from_incomplete_journal_ &&
             journal_orphans == 0 && !config_.journal_path.empty()) {
    // Full recovery: this resumed sweep holds every enumerated cell and
    // journaled every re-run one, so the journal can be rewritten as the
    // complete transcript it now is, clearing the incompleteness marker.
    const Status rewritten =
        ReplaceJournal(config_.journal_path, records, 0);
    if (rewritten.ok()) {
      LogInfo("journal " + config_.journal_path +
              ": fully recovered from a previous run's lost appends; "
              "rewritten complete");
    } else {
      LogWarning("journal recovery rewrite failed: " +
                 rewritten.ToString());
    }
  }

  const std::string shard_note =
      shard.count > 1
          ? StrFormat(" [shard %s: %zu of %lld cells]",
                      shard.ToString().c_str(), cells.size(),
                      static_cast<long long>(total_cells))
          : std::string();
  LogInfo(StrFormat(
      "sweep%s: %zu cells (%zu ok, %zu failed, %zu timeout, %zu skipped, "
      "%zu resumed) on %d worker thread(s) in %.2fs wall (%.1f cells/s)",
      shard_note.c_str(), cells.size(), ok_cells, failed, timeouts,
      skipped, last_sweep_resumed_cells_, jobs, last_sweep_wall_seconds_,
      last_sweep_wall_seconds_ > 0.0
          ? static_cast<double>(cells.size()) / last_sweep_wall_seconds_
          : 0.0));
  if (config_.transform_cache) {
    const TransformCacheStats cache = transform_cache_.Stats();
    LogInfo(StrFormat(
        "transform cache: %llu hit(s), %llu miss(es), %llu predict hit(s), "
        "%llu predict miss(es), %llu eviction(s), "
        "%zu entries (%.1f MB of %.0f MB)",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.predict_hits),
        static_cast<unsigned long long>(cache.predict_misses),
        static_cast<unsigned long long>(cache.evictions), cache.entries,
        static_cast<double>(cache.bytes) / (1024.0 * 1024.0),
        config_.transform_cache_mb));
  }
  return records;
}

Result<ServeDeployment> FitServeDeployment(const ExperimentConfig& config,
                                           ExecutionContext* ctx) {
  SyntheticSpec spec;
  spec.name = "serve-bench";
  spec.num_rows = 600;
  spec.num_features = 12;
  spec.num_informative = 7;
  spec.num_categorical = 3;
  spec.num_classes = 3;
  spec.separation = 2.2;
  spec.label_noise = 0.05;
  spec.seed = 4242;
  GREEN_ASSIGN_OR_RETURN(const Dataset dataset, GenerateSynthetic(spec));
  Rng split_rng(1);
  ServeDeployment out;
  out.data =
      Materialize(dataset, StratifiedSplit(dataset, 0.66, &split_rng));
  ExperimentRunner runner(config);
  GREEN_ASSIGN_OR_RETURN(std::unique_ptr<AutoMlSystem> system,
                         runner.MakeSystem("autogluon", 60.0));
  AutoMlOptions options;
  options.search_budget_seconds = 60.0 * config.budget_scale;
  options.cores = config.cores;
  options.seed = config.seed;
  GREEN_ASSIGN_OR_RETURN(AutoMlRunResult run,
                         system->Fit(out.data.train, options, ctx));
  out.artifact = std::move(run.artifact);
  return out;
}

}  // namespace green
