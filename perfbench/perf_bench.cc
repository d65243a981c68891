// perf_bench: the repository benchmark (perfbench/BENCHMARK.md).
//
// One invocation measures one workload in its own process:
//
//   perf_bench --workload paper_sweep --seed 42 --seconds 10 --trace 0
//
// It builds the workload's inputs from --seed several times (setup_s is
// the median), then repeats one fixed round of work until --seconds have
// passed and reports the median round. With --trace 1 it instead
// alternates untraced rounds with a traced decomposition of the same work
// into calls to the layers' public functions, runs per-layer probes, and
// reports the per-layer metrics; --trace-out writes the spans as Chrome
// trace-event JSON (loads in Perfetto).
//
// Every run checks its outputs: all rounds must agree, the traced
// decomposition must reproduce the untraced per-item digests, and at the
// workload's default seed the outputs must match the checked-in snapshots
// and perfbench/golden.txt. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// --seed generates the inputs: the tables, the request traces, the tuning
// corpus. The systems' own search seed stays at the workload's default,
// so every seed asks the same search trajectories of different data and
// the work per round stays comparable across seeds.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "green/automl/askl_meta_cache.h"
#include "green/automl/automl_system.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/common/logging.h"
#include "green/common/rng.h"
#include "green/common/stringutil.h"
#include "green/common/thread_pool.h"
#include "green/data/amlb_suite.h"
#include "green/data/meta_corpus.h"
#include "green/data/synthetic.h"
#include "green/energy/energy_meter.h"
#include "green/energy/energy_model.h"
#include "green/metaopt/automl_tuner.h"
#include "green/metaopt/representative.h"
#include "green/ml/metrics.h"
#include "green/ml/model_registry.h"
#include "green/ml/transform_cache.h"
#include "green/search/caruana.h"
#include "green/search/rf_surrogate.h"
#include "green/serve/artifact_ladder.h"
#include "green/serve/inference_server.h"
#include "green/serve/request_stream.h"
#include "green/sim/execution_context.h"
#include "green/table/split.h"

extern char** environ;

namespace green {
namespace {

// ---------------------------------------------------------------------------
// Clocks, process counters, statistics, digests. The statistics are the
// benchmark's own, not the library's, so a change under test cannot move
// how it is measured.

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Nearest-rank quantile, p in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// FNV-1a, 64 bit, over newline-terminated lines.
class Fnv64 {
 public:
  void AddLine(const std::string& line) {
    for (unsigned char c : line) Mix(c);
    Mix('\n');
  }
  std::string Hex() const {
    return StrFormat("%016llx", static_cast<unsigned long long>(hash_));
  }

 private:
  void Mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
};

/// The snapshot's input when `seed` is the workload default, otherwise a
/// value derived from the seed: the default seed reproduces the
/// checked-in snapshots exactly.
uint64_t InputSeed(uint64_t seed, uint64_t default_seed,
                   uint64_t snapshot_value) {
  return seed == default_seed ? snapshot_value
                              : HashCombine(seed, snapshot_value);
}

// ---------------------------------------------------------------------------
// Checks: every failed oracle is recorded and turns `correct` false.

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "perf_bench: CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written at exit as Chrome trace events.

struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "automl.fit".
  int64_t id = 0;
  int64_t parent = -1;
  int64_t cell = -1;  ///< Item the span belongs to (-1 = none).
  int tid = 0;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  Tracer() : origin_(WallSeconds()) {}

  int64_t Begin() {
    const int64_t id = next_id_.fetch_add(1);
    OpenStack().push_back(id);
    return id;
  }

  /// Closes the innermost open span of the calling thread.
  void End(SpanRecord span) {
    std::vector<int64_t>& stack = OpenStack();
    stack.pop_back();
    span.parent = stack.empty() ? -1 : stack.back();
    span.tid = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// Spans closed since `mark` (a previous size()).
  std::vector<SpanRecord> Since(size_t mark) const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<SpanRecord>(spans_.begin() + mark, spans_.end());
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds). Each
  /// event carries its span id, parent id, cell id and self time.
  bool WriteChromeJson(const std::string& path) const;

 private:
  static std::vector<int64_t>& OpenStack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  const double origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Self time: each span's duration minus the union of its children's
/// intervals.
std::map<int64_t, double> SelfSeconds(const std::vector<SpanRecord>& spans) {
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].push_back({span.start, span.end});
    }
  }
  std::map<int64_t, double> self;
  for (const SpanRecord& span : spans) {
    double covered = 0.0;
    auto found = children.find(span.id);
    if (found != children.end()) {
      std::vector<std::pair<double, double>>& parts = found->second;
      std::sort(parts.begin(), parts.end());
      double cursor = span.start;
      for (auto [start, end] : parts) {
        start = std::max(start, cursor);
        end = std::min(end, span.end);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    self[span.id] = std::max(0.0, span.seconds() - covered);
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::vector<SpanRecord> spans = Since(0);
  const std::map<int64_t, double> self = SelfSeconds(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(
        f,
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
        "\"parent\": %lld, \"cell\": %lld, \"self_us\": %.3f}}%s\n",
        s.name.c_str(), layer.c_str(), s.tid, (s.start - origin_) * 1e6,
        s.seconds() * 1e6, static_cast<long long>(s.id),
        static_cast<long long>(s.parent), static_cast<long long>(s.cell),
        self.at(s.id) * 1e6, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// RAII span; a null tracer makes it a plain stopwatch.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t cell = -1)
      : tracer_(tracer) {
    record_.name = name;
    record_.cell = cell;
    if (tracer_ != nullptr) record_.id = tracer_->Begin();
    record_.start = WallSeconds();
  }
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent); returns its duration in seconds.
  double End() {
    if (!open_) return record_.seconds();
    open_ = false;
    record_.end = WallSeconds();
    if (tracer_ != nullptr) tracer_->End(record_);
    return record_.seconds();
  }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
// Metrics.

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef>* kDefs = new std::vector<MetricDef>{
      {"items_per_s", "1/s"},
      {"cpu_ms_per_item", "ms"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return *kDefs;
}

/// Fixed here rather than read from the library so that the metric list
/// (and BENCHMARK.json) does not drift when a system or model is added.
const std::vector<std::string>& SystemNames() {
  static const std::vector<std::string>* kNames = new std::vector<std::string>{
      "tabpfn",       "caml",         "caml_tuned", "flaml",
      "autogluon",    "autogluon_refit", "autosklearn1",
      "autosklearn2", "tpot",         "random_search", "autopt"};
  return *kNames;
}

const std::vector<std::string>& ModelNames() {
  static const std::vector<std::string>* kNames = new std::vector<std::string>{
      "decision_tree", "random_forest",       "extra_trees",
      "gradient_boosting", "adaboost",        "logistic_regression",
      "knn",           "naive_bayes",         "mlp",
      "attention_few_shot"};
  return *kNames;
}

const std::vector<std::string>& ServeCells() {
  static const std::vector<std::string>* kCells = new std::vector<std::string>{
      "diurnal.baseline", "diurnal.deadline-degrade", "burst.baseline",
      "burst.deadline-degrade"};
  return *kCells;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef>* kDefs = [] {
    auto* defs = new std::vector<MetricDef>{
        {"bench_util.cell_ms.p50", "ms"},
        {"bench_util.cell_ms.p90", "ms"},
        {"bench_util.cell_self_ms", "ms"},
        {"bench_util.cells_attempted", "count"},
        {"bench_util.cells_skipped", "count"},
        {"bench_util.record_io.write_ms", "ms"},
        {"bench_util.record_io.read_ms", "ms"},
        {"bench_util.journal_mb", "MB"},
        {"bench_util.resume_ms", "ms"},
        {"common.thread_pool.jobs", "count"},
        {"common.thread_pool.speedup", "ratio"},
        {"automl.predict_ms", "ms"},
        {"automl.ensemble_members.mean", "count"},
        {"table.split_ms", "ms"},
        {"data.instantiate_ms", "ms"},
        {"ml.transform_cache.fit_hit_ratio", "ratio"},
        {"ml.transform_cache.predict_hit_ratio", "ratio"},
        {"ml.transform_cache.evictions", "count"},
        {"search.surrogate_fit_ms.n50", "ms"},
        {"search.surrogate_fit_ms.n300", "ms"},
        {"search.caruana_ms", "ms"},
        {"sim.charge_ns", "ns"},
        {"sim.gflop_per_item", "GFLOP"},
        {"sim.charges_per_item", "count"},
        {"energy.kwh_per_round", "kWh"},
        {"serve.batches", "count"},
        {"serve.rows_per_batch", "count"},
        {"serve.degraded_ratio", "ratio"},
        {"serve.ladder_build_ms", "ms"},
        {"metaopt.tune_ms", "ms"},
        {"metaopt.trial_ms", "ms"},
        {"metaopt.useful_trial_ratio", "ratio"},
        {"metaopt.representatives_ms", "ms"},
        {"trace.overhead_ratio", "ratio"},
    };
    for (const std::string& system : SystemNames()) {
      defs->push_back({"automl.fit_ms." + system, "ms"});
      defs->push_back({"automl.pipelines." + system, "count"});
      defs->push_back({"automl.ms_per_pipeline." + system, "ms"});
    }
    for (const std::string& model : ModelNames()) {
      defs->push_back({"ml.fit_us_per_row." + model, "us/row"});
      defs->push_back({"ml.predict_us_per_row." + model, "us/row"});
    }
    for (const std::string& cell : ServeCells()) {
      defs->push_back({"serve.replay_ms." + cell, "ms"});
    }
    for (const char* tier : {"full", "single", "constant"}) {
      defs->push_back({std::string("serve.tier_us_per_row.") + tier,
                       "us/row"});
    }
    return defs;
  }();
  return *kDefs;
}

using LayerValues = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Workloads.

/// What one round produced. `item_digests` lets the traced decomposition
/// be compared with the untraced round item by item.
struct RoundOutput {
  uint64_t items = 0;   ///< Attempted cells / arrived requests / trials.
  uint64_t failed = 0;  ///< Failed or timed-out cells; refused requests.
  std::vector<std::string> item_digests;
  /// Host seconds of the part of the round the traced decomposition
  /// reproduces (the whole round unless a workload says otherwise).
  double traced_part_seconds = -1.0;

  std::string Digest() const {
    Fnv64 fnv;
    for (const std::string& line : item_digests) fnv.AddLine(line);
    return fnv.Hex();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, replacing previous ones. Timed.
  virtual void Setup(uint64_t seed, Tracer* tracer) = 0;
  /// Round `index` of the measured phase; rounds whose indices agree
  /// modulo Cycle() do the same work. Timed; keeps what Verify needs.
  virtual RoundOutput Round(size_t index) = 0;
  /// Untimed checks of the round Round() just ran.
  virtual void Verify(Checks* checks) {}
  /// The same work as Round(index), decomposed into calls to the layers'
  /// public functions under spans; fills per-layer values of the round.
  virtual RoundOutput TracedRound(size_t index, Tracer* tracer,
                                  LayerValues* layer) = 0;
  /// Distinct rounds before the work repeats.
  virtual size_t Cycle() const { return 1; }
  /// Per-layer measurements beyond the rounds (traced run only).
  virtual void TraceExtras(Tracer* tracer, LayerValues* layer,
                           Checks* checks) {}
  /// Oracles that exist only at the default seed (snapshots).
  virtual void CheckSnapshots(const std::string& root, Checks* checks) {}
  /// The table the per-model probes run on.
  virtual const Dataset& LargestTable() const = 0;
};

std::string CellDigest(const std::string& key, RunOutcome outcome,
                       int pipelines, size_t members, double kwh,
                       double score) {
  return StrFormat("%s|%s|%d|%zu|%.10g|%.10g", key.c_str(),
                   RunOutcomeName(outcome), pipelines, members, kwh, score);
}

std::string Serialize(const std::vector<RunRecord>& records) {
  std::string out;
  for (const RunRecord& record : records) {
    out += RecordToJson(record);
    out += '\n';
  }
  return out;
}

const Dataset& Largest(const std::vector<Dataset>& tables) {
  GREEN_CHECK(!tables.empty());
  return *std::max_element(
      tables.begin(), tables.end(), [](const Dataset& a, const Dataset& b) {
        return a.num_rows() * a.num_features() <
               b.num_rows() * b.num_features();
      });
}

/// A Sweep grid: the paper_sweep, large_tables and mixed_parallel
/// workloads.
struct SweepShape {
  uint64_t config_seed = 42;
  std::vector<std::string> systems;
  std::vector<double> budgets;
  double budget_scale = 0.15;
  int repetitions = 1;
  int jobs = 1;
  bool collect_scopes = false;
  /// Journal every cell, then resume a second runner from the complete
  /// journal (every cell must load, none re-run).
  bool journal_and_resume = false;
  std::function<std::vector<Dataset>(uint64_t seed)> make_suite;
};

/// Everything the traced decomposition learns about one cell.
struct TracedCell {
  std::string digest;
  bool skipped = false;
  bool failed = false;
  size_t system = 0;
  int pipelines = 0;
  size_t members = 0;
  double fit_seconds = 0.0;
  double predict_seconds = 0.0;
  double split_seconds = 0.0;
  double flops = 0.0;
  uint64_t charges = 0;
  double kwh = 0.0;
};

class SweepWorkload : public Workload {
 public:
  SweepWorkload(SweepShape shape, std::string work_dir)
      : shape_(std::move(shape)), work_dir_(std::move(work_dir)) {}

  void Setup(uint64_t seed, Tracer* tracer) override {
    suite_.clear();
    AsklMetaStoreCache::Instance().Clear();
    {
      Span span(tracer, "data.instantiate");
      suite_ = shape_.make_suite(seed);
    }
    // The ASKL meta-store is a development-stage artifact every sweep
    // with an autosklearn cell builds once per process: it belongs to
    // set-up, not to the rounds.
    for (const std::string& system : shape_.systems) {
      if (system.rfind("autosklearn", 0) != 0) continue;
      Span span(tracer, "automl.meta_store");
      ExperimentRunner runner(Config());
      GREEN_CHECK(runner.MakeSystem(system, 300.0).ok());
      break;
    }
  }

  RoundOutput Round(size_t) override {
    ExperimentConfig config = Config();
    if (shape_.journal_and_resume) config.journal_path = JournalPath();
    ExperimentRunner runner(config);
    runner.SetSuite(suite_);
    auto records = runner.Sweep(shape_.systems, shape_.budgets);
    GREEN_CHECK(records.ok());
    RoundOutput out = Summarize(*records);
    out.traced_part_seconds = runner.last_sweep_wall_seconds();
    resumed_.reset();
    if (shape_.journal_and_resume) {
      const double start = WallSeconds();
      config.resume = true;
      ExperimentRunner resumed(config);
      resumed.SetSuite(suite_);
      auto again = resumed.Sweep(shape_.systems, shape_.budgets);
      GREEN_CHECK(again.ok());
      resume_seconds_.push_back(WallSeconds() - start);
      resumed_cells_ = resumed.last_sweep_resumed_cells();
      resumed_ = std::move(again).value();
    }
    records_ = std::move(records).value();
    return out;
  }

  void Verify(Checks* checks) override {
    if (!shape_.journal_and_resume) return;
    checks->Expect(resumed_cells_ == records_.size(),
                   StrFormat("resume loaded %zu of %zu cells",
                             resumed_cells_, records_.size()));
    checks->Expect(resumed_.has_value() &&
                       Serialize(*resumed_) == Serialize(records_),
                   "resumed record stream differs from the swept stream");
    CheckScopeConservation(checks);
  }

  RoundOutput TracedRound(size_t, Tracer* tracer,
                          LayerValues* layer) override;
  void TraceExtras(Tracer* tracer, LayerValues* layer,
                   Checks* checks) override;
  void CheckSnapshots(const std::string& root, Checks* checks) override;

  const Dataset& LargestTable() const override { return Largest(suite_); }

 private:
  ExperimentConfig Config() const {
    ExperimentConfig config;
    config.profile = SimulationProfile::Fast();
    // The suite comes from make_suite; the runner's own instantiation is
    // cut to one task and then replaced.
    config.dataset_limit = 1;
    config.paper_budgets = shape_.budgets;
    config.budget_scale = shape_.budget_scale;
    config.repetitions = shape_.repetitions;
    config.seed = shape_.config_seed;
    config.jobs = shape_.jobs;
    config.collect_scopes = shape_.collect_scopes;
    return config;
  }

  std::string JournalPath() const { return work_dir_ + "/journal.jsonl"; }

  RoundOutput Summarize(const std::vector<RunRecord>& records) const {
    RoundOutput out;
    for (const RunRecord& record : records) {
      if (record.outcome != RunOutcome::kSkipped) ++out.items;
      if (record.outcome == RunOutcome::kFailed ||
          record.outcome == RunOutcome::kTimeout) {
        ++out.failed;
      }
      out.item_digests.push_back(CellDigest(
          RunRecordCellKey(record), record.outcome,
          record.pipelines_evaluated, record.num_pipelines,
          record.execution_kwh, record.test_metric));
    }
    return out;
  }

  void CheckScopeConservation(Checks* checks) const {
    if (!shape_.collect_scopes) return;
    for (const RunRecord& record : records_) {
      if (!record.ok()) continue;
      double execution = 0.0;
      for (const RunScope& scope : record.scopes) {
        if (scope.path.rfind("execution/", 0) == 0) execution += scope.kwh;
      }
      // Scope rows carry dynamic energy only; the headline adds idle
      // power, so the sum is a strict lower bound.
      checks->Expect(execution > 0.0 &&
                         execution <= record.execution_kwh * (1.0 + 1e-9),
                     "scope energy does not conserve in " +
                         RunRecordCellKey(record));
    }
  }

  TracedCell TraceCell(ExperimentRunner* runner, const EnergyModel& model,
                       TransformCache* cache, Tracer* tracer, int64_t index,
                       size_t system_index, const Dataset& dataset,
                       double budget, int rep) const;

  SweepShape shape_;
  std::string work_dir_;
  std::vector<Dataset> suite_;
  std::vector<RunRecord> records_;
  std::optional<std::vector<RunRecord>> resumed_;
  size_t resumed_cells_ = 0;
  std::vector<double> resume_seconds_;
};

TracedCell SweepWorkload::TraceCell(ExperimentRunner* runner,
                                    const EnergyModel& model,
                                    TransformCache* cache, Tracer* tracer,
                                    int64_t index, size_t system_index,
                                    const Dataset& dataset, double budget,
                                    int rep) const {
  const std::string& system_name = shape_.systems[system_index];
  const std::string key =
      RunRecordCellKey(system_name, dataset.name(), budget, rep);
  TracedCell cell;
  cell.system = system_index;
  Span cell_span(tracer, "bench_util.cell", index);
  auto skip = [&](RunOutcome outcome) {
    cell.skipped = outcome == RunOutcome::kSkipped;
    cell.failed = !cell.skipped;
    cell.digest = CellDigest(key, outcome, 0, 0, 0.0, 0.0);
    return cell;
  };
  if (budget < runner->MinBudget(system_name)) {
    return skip(RunOutcome::kSkipped);
  }
  auto system = runner->MakeSystem(system_name, budget);
  if (!system.ok()) return skip(OutcomeForStatus(system.status()));
  if (!(*system)->SupportsTask(dataset.task())) {
    return skip(RunOutcome::kSkipped);
  }

  const uint64_t run_seed = HashCombine(
      HashCombine(shape_.config_seed, rep + 1),
      HashCombine(HashString(system_name.c_str()),
                  HashString(dataset.name().c_str())));
  Rng rng(run_seed);
  TrainTestData data;
  {
    Span span(tracer, "table.split", index);
    data = Materialize(dataset, SplitForTask(dataset, 0.66, &rng));
    cell.split_seconds = span.End();
  }

  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ctx.SetTransformCache(cache);
  AutoMlOptions options;
  options.search_budget_seconds = budget * shape_.budget_scale;
  options.cores = ctx.cores();
  options.seed = run_seed;
  Result<AutoMlRunResult> run = Status::Internal("not run");
  {
    Span span(tracer, "automl.fit", index);
    run = (*system)->Fit(data.train, options, &ctx);
    cell.fit_seconds = span.End();
  }
  if (!run.ok()) return skip(OutcomeForStatus(run.status()));

  EnergyMeter inference_meter(&model);
  inference_meter.Start(clock.Now());
  ctx.SetMeter(&inference_meter);
  const bool regression = data.test.task() == TaskType::kRegression;
  double score = 0.0;
  {
    Span span(tracer, "automl.predict", index);
    if (regression) {
      auto values = run->artifact.PredictProba(data.test, &ctx);
      if (!values.ok()) return skip(OutcomeForStatus(values.status()));
      score = PrimaryMetric(data.test, *values);
    } else {
      auto preds = run->artifact.Predict(data.test, &ctx);
      if (!preds.ok()) return skip(OutcomeForStatus(preds.status()));
      score = BalancedAccuracy(data.test.labels(), *preds,
                               data.test.num_classes());
    }
    cell.predict_seconds = span.End();
  }
  const EnergyReading inference = inference_meter.Stop(clock.Now());
  ctx.SetMeter(nullptr);

  cell.pipelines = run->pipelines_evaluated;
  cell.members = run->artifact.NumPipelines();
  cell.kwh = run->execution.kwh() / shape_.budget_scale;
  for (const EnergyReading* reading :
       {static_cast<const EnergyReading*>(&run->execution), &inference}) {
    for (const auto& [path, charge] : reading->scopes) {
      cell.flops += charge.flops;
      cell.charges += charge.charges;
    }
  }
  cell.digest = CellDigest(key, RunOutcome::kOk, cell.pipelines,
                           cell.members, cell.kwh, score);
  return cell;
}

RoundOutput SweepWorkload::TracedRound(size_t, Tracer* tracer,
                                       LayerValues* layer) {
  struct Item {
    size_t system;
    double budget;
    const Dataset* dataset;
    int rep;
  };
  // Sweep's canonical enumeration: system, budget, dataset, repetition;
  // TabPFN runs one budget point.
  std::vector<Item> items;
  for (size_t s = 0; s < shape_.systems.size(); ++s) {
    for (double budget : shape_.budgets) {
      for (const Dataset& dataset : suite_) {
        for (int rep = 0; rep < shape_.repetitions; ++rep) {
          items.push_back(Item{s, budget, &dataset, rep});
        }
      }
      if (shape_.systems[s] == "tabpfn") break;
    }
  }

  ExperimentConfig config = Config();
  ExperimentRunner runner(config);  // For MakeSystem and MinBudget only.
  const EnergyModel model(config.machine);
  TransformCache cache(static_cast<size_t>(config.transform_cache_mb *
                                           1024.0 * 1024.0));
  std::vector<TracedCell> cells(items.size());
  const size_t mark = tracer->size();
  ParallelFor(items.size(), shape_.jobs, [&](size_t i) {
    cells[i] = TraceCell(&runner, model, &cache, tracer,
                         static_cast<int64_t>(i), items[i].system,
                         *items[i].dataset, items[i].budget, items[i].rep);
  });

  RoundOutput out;
  std::vector<double> fit_seconds(shape_.systems.size(), 0.0);
  std::vector<double> pipelines(shape_.systems.size(), 0.0);
  double predict = 0.0, split = 0.0, flops = 0.0, charges = 0.0, kwh = 0.0;
  double members = 0.0, ok_cells = 0.0, skipped = 0.0;
  for (const TracedCell& cell : cells) {
    out.item_digests.push_back(cell.digest);
    if (cell.skipped) {
      ++skipped;
      continue;
    }
    ++out.items;
    if (cell.failed) {
      ++out.failed;
      continue;
    }
    fit_seconds[cell.system] += cell.fit_seconds;
    pipelines[cell.system] += cell.pipelines;
    predict += cell.predict_seconds;
    split += cell.split_seconds;
    flops += cell.flops;
    charges += static_cast<double>(cell.charges);
    kwh += cell.kwh;
    members += static_cast<double>(cell.members);
    ++ok_cells;
  }

  std::vector<double> cell_ms;
  double cell_self = 0.0;
  const std::vector<SpanRecord> spans = tracer->Since(mark);
  const std::map<int64_t, double> self = SelfSeconds(spans);
  for (const SpanRecord& span : spans) {
    if (span.name != "bench_util.cell") continue;
    if (cells[static_cast<size_t>(span.cell)].skipped) continue;
    cell_ms.push_back(span.seconds() * 1e3);
    cell_self += self.at(span.id);
  }

  LayerValues& v = *layer;
  v["bench_util.cell_ms.p50"] = Quantile(cell_ms, 0.5);
  v["bench_util.cell_ms.p90"] = Quantile(cell_ms, 0.9);
  v["bench_util.cell_self_ms"] = cell_self * 1e3;
  v["bench_util.cells_attempted"] = static_cast<double>(out.items);
  v["bench_util.cells_skipped"] = skipped;
  v["common.thread_pool.jobs"] = shape_.jobs;
  for (size_t s = 0; s < shape_.systems.size(); ++s) {
    const std::string& name = shape_.systems[s];
    v["automl.fit_ms." + name] = fit_seconds[s] * 1e3;
    v["automl.pipelines." + name] = pipelines[s];
    v["automl.ms_per_pipeline." + name] =
        pipelines[s] > 0 ? fit_seconds[s] * 1e3 / pipelines[s] : 0.0;
  }
  v["automl.predict_ms"] = predict * 1e3;
  v["automl.ensemble_members.mean"] = ok_cells > 0 ? members / ok_cells : 0;
  v["table.split_ms"] = split * 1e3;
  const TransformCacheStats stats = cache.Stats();
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  v["ml.transform_cache.fit_hit_ratio"] = ratio(stats.hits, stats.misses);
  v["ml.transform_cache.predict_hit_ratio"] =
      ratio(stats.predict_hits, stats.predict_misses);
  v["ml.transform_cache.evictions"] = static_cast<double>(stats.evictions);
  v["sim.gflop_per_item"] = out.items > 0 ? flops / 1e9 / out.items : 0.0;
  v["sim.charges_per_item"] = out.items > 0 ? charges / out.items : 0.0;
  v["energy.kwh_per_round"] = kwh;
  return out;
}

void SweepWorkload::TraceExtras(Tracer* tracer, LayerValues* layer,
                                Checks* checks) {
  LayerValues& v = *layer;
  if (!shape_.journal_and_resume) return;

  // record_io on the last untraced round's records: the append path a
  // journaled sweep takes per cell, then the ReadJournal path of resume.
  const std::string path = work_dir_ + "/record_io.jsonl";
  std::remove(path.c_str());
  {
    Span span(tracer, "bench_util.record_io.write");
    for (const RunRecord& record : records_) {
      checks->Expect(AppendRecordJsonl(record, path).ok(),
                     "journal append failed");
    }
    v["bench_util.record_io.write_ms"] = span.End() * 1e3;
  }
  {
    Span span(tracer, "bench_util.record_io.read");
    auto journal = ReadJournal(path);
    v["bench_util.record_io.read_ms"] = span.End() * 1e3;
    checks->Expect(journal.ok() && journal->records.size() == records_.size(),
                   "journal read-back lost records");
  }
  struct stat info{};
  if (stat(path.c_str(), &info) == 0) {
    v["bench_util.journal_mb"] =
        static_cast<double>(info.st_size) / (1024.0 * 1024.0);
  }
  std::remove(path.c_str());
  v["bench_util.resume_ms"] = Median(resume_seconds_) * 1e3;

  // Host parallel speedup of the work-stealing pool on a two-repetition
  // slice of the grid; both streams must be byte-identical.
  ExperimentConfig config = Config();
  config.repetitions = std::min(2, shape_.repetitions);
  std::string streams[2];
  double walls[2] = {0.0, 0.0};
  const int jobs[2] = {1, shape_.jobs};
  for (int i = 0; i < 2; ++i) {
    config.jobs = jobs[i];
    ExperimentRunner runner(config);
    runner.SetSuite(suite_);
    Span span(tracer, "bench_util.sweep");
    auto records = runner.Sweep(shape_.systems, shape_.budgets);
    span.End();
    checks->Expect(records.ok(), "speedup sweep failed");
    if (records.ok()) streams[i] = Serialize(*records);
    walls[i] = runner.last_sweep_wall_seconds();
  }
  checks->Expect(streams[0] == streams[1],
                 "jobs 1 and jobs N record streams differ");
  v["common.thread_pool.speedup"] = walls[1] > 0 ? walls[0] / walls[1] : 0;
}

void SweepWorkload::CheckSnapshots(const std::string& root, Checks* checks) {
  if (!shape_.journal_and_resume) return;
  // The rep-0 slice of the record stream is the BENCH_mixed_tasks.json
  // snapshot: run seeds depend on the cell, not on the repetition count.
  std::vector<RunRecord> rep0;
  for (const RunRecord& record : records_) {
    if (record.repetition == 0) rep0.push_back(record);
  }
  std::ifstream in(root + "/BENCH_mixed_tasks.json", std::ios::binary);
  std::stringstream snapshot;
  snapshot << in.rdbuf();
  checks->Expect(in.good() || in.eof(), "cannot read BENCH_mixed_tasks.json");
  checks->Expect(Serialize(rep0) == snapshot.str(),
                 "rep-0 records differ from BENCH_mixed_tasks.json");
}

// --- serve_replay -----------------------------------------------------------

constexpr uint64_t kServeSeed = 42;

std::string ServeSummary(const std::string& name, const ServeReport& r) {
  // Field for field the object bench/serve_trace writes to BENCH_serve.json.
  return StrFormat(
      "{\"name\": \"%s\", \"arrived\": %zu, \"completed\": %zu, "
      "\"degraded\": %zu, \"rejected\": %zu, \"deadline\": %zu, "
      "\"batches\": %zu, \"p50_ms\": %.6g, \"p95_ms\": %.6g, "
      "\"p99_ms\": %.6g, \"joules_per_request\": %.6g}",
      name.c_str(), r.arrived, r.completed, r.degraded, r.rejected,
      r.deadline_exceeded, r.batches, r.LatencyPercentile(0.50) * 1e3,
      r.LatencyPercentile(0.95) * 1e3, r.LatencyPercentile(0.99) * 1e3,
      r.JoulesPerRequest());
}

class ServeWorkload : public Workload {
 public:
  /// Virtual seconds per trace in one round.
  static constexpr double kTraceSeconds = 180.0;
  /// Base rate of the burst trace (spikes at 10x). bench/serve_trace
  /// uses 30 rps, where the baseline queue starts to shed in the spikes
  /// of long traces; at 20 rps no request is refused.
  static constexpr double kBurstRps = 20.0;

  ServeWorkload() : model_(MachineModel::XeonGold6132()) {}

  void Setup(uint64_t seed, Tracer* tracer) override {
    ladder_.reset();
    // bench/serve_trace's deployment: a 600-row 3-class task, an
    // autogluon artifact fitted at the 60 s paper budget, its degrade
    // ladder. The deployed model is the same for every seed; the seed
    // draws the traffic (arrival times and requested rows).
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
    {
      Span span(tracer, "data.instantiate");
      dataset_ = GenerateSynthetic(spec).value();
    }
    {
      Span span(tracer, "table.split");
      Rng split_rng(1);
      data_ = Materialize(dataset_,
                          StratifiedSplit(dataset_, 0.66, &split_rng));
    }
    ExperimentConfig config;
    config.profile = SimulationProfile::Fast();
    config.dataset_limit = 1;
    ExperimentRunner runner(config);
    auto system = runner.MakeSystem("autogluon", 60.0);
    GREEN_CHECK(system.ok());
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model_, config.cores);
    AutoMlOptions options;
    options.search_budget_seconds = 60.0 * config.budget_scale;
    options.cores = config.cores;
    options.seed = config.seed;
    Result<AutoMlRunResult> run = Status::Internal("not run");
    {
      Span span(tracer, "automl.fit");
      run = (*system)->Fit(data_.train, options, &ctx);
    }
    GREEN_CHECK(run.ok());
    {
      Span span(tracer, "serve.ladder_build");
      auto ladder = ArtifactLadder::Build(run->artifact, data_.train, &model_);
      ladder_build_seconds_.push_back(span.End());
      GREEN_CHECK(ladder.ok());
      ladder_ = std::move(ladder).value();
    }
    diurnal_ = GenerateTrace(Spec(TraceSpec::Kind::kDiurnal, 60.0,
                                  kTraceSeconds, seed),
                             data_.test.num_rows());
    burst_ = GenerateTrace(
        Spec(TraceSpec::Kind::kBurst, kBurstRps, kTraceSeconds, seed),
        data_.test.num_rows());
  }

  RoundOutput Round(size_t) override { return Replay(nullptr, nullptr); }

  void Verify(Checks* checks) override {
    for (size_t i = 0; i < reports_.size(); ++i) {
      const Status conserved = reports_[i].CheckConservation();
      checks->Expect(conserved.ok(), ServeCells()[i] + ": " +
                                         conserved.ToString());
    }
  }

  RoundOutput TracedRound(size_t, Tracer* tracer,
                          LayerValues* layer) override {
    return Replay(tracer, layer);
  }

  void TraceExtras(Tracer* tracer, LayerValues* layer,
                   Checks* checks) override {
    LayerValues& v = *layer;
    v["serve.ladder_build_ms"] = Median(ladder_build_seconds_) * 1e3;
    for (const ArtifactTier& tier : ladder_->tiers()) {
      std::vector<double> seconds;
      for (int rep = 0; rep < 5; ++rep) {
        VirtualClock clock;
        ExecutionContext ctx(&clock, &model_, 1);
        Span span(tracer, "serve.tier_predict");
        checks->Expect(tier.PredictProba(data_.test, &ctx).ok(),
                       "tier " + tier.name + " predict failed");
        seconds.push_back(span.End());
      }
      v["serve.tier_us_per_row." + tier.name] =
          Median(seconds) * 1e6 / static_cast<double>(data_.test.num_rows());
    }
    v["automl.ensemble_members.mean"] =
        static_cast<double>(ladder_->tier(0).artifact.NumPipelines());
  }

  void CheckSnapshots(const std::string& root, Checks* checks) override {
    // bench/serve_trace's 10-second cells must reproduce their
    // BENCH_serve.json lines.
    std::ifstream in(root + "/BENCH_serve.json");
    std::map<std::string, std::string> snapshot;
    for (std::string line; std::getline(in, line);) {
      const size_t open = line.find('{');
      const size_t close = line.rfind('}');
      if (open == std::string::npos || close == std::string::npos) continue;
      const std::string object = line.substr(open, close - open + 1);
      const size_t name = object.find("\"name\": \"") + 9;
      snapshot[object.substr(name, object.find('"', name) - name)] = object;
    }
    checks->Expect(!snapshot.empty(), "cannot read BENCH_serve.json");
    const std::vector<ServeRequest> traces[2] = {
        GenerateTrace(Spec(TraceSpec::Kind::kDiurnal, 60.0, 10.0, kServeSeed),
                      data_.test.num_rows()),
        GenerateTrace(Spec(TraceSpec::Kind::kBurst, 30.0, 10.0, kServeSeed),
                      data_.test.num_rows())};
    const char* trace_names[2] = {"diurnal", "burst"};
    for (int t = 0; t < 2; ++t) {
      for (const auto& [policy_name, policy] : Policies()) {
        const std::string name =
            std::string(trace_names[t]) + "/" + policy_name;
        InferenceServer server(*ladder_, data_.test, &model_, policy);
        auto report = server.Replay(traces[t]);
        checks->Expect(report.ok() && report->CheckConservation().ok(),
                       name + ": replay failed or does not conserve");
        if (!report.ok()) continue;
        checks->Expect(ServeSummary(name, *report) == snapshot[name],
                       name + " differs from BENCH_serve.json");
      }
    }
  }

  const Dataset& LargestTable() const override { return dataset_; }

 private:
  static TraceSpec Spec(TraceSpec::Kind kind, double rps, double seconds,
                        uint64_t seed) {
    TraceSpec spec;
    spec.kind = kind;
    spec.rate_rps = rps;
    spec.duration_seconds = seconds;
    spec.seed = seed;
    return spec;
  }

  static std::vector<std::pair<std::string, ServePolicy>> Policies() {
    ServePolicy degrade;
    degrade.deadline_seconds = 0.005;
    degrade.on_deadline = ServePolicy::DeadlineAction::kDegrade;
    return {{"baseline", ServePolicy()}, {"deadline-degrade", degrade}};
  }

  RoundOutput Replay(Tracer* tracer, LayerValues* layer) {
    RoundOutput out;
    reports_.clear();
    size_t batches = 0, answered = 0, degraded = 0;
    double joules = 0.0, flops = 0.0, charges = 0.0;
    const std::vector<ServeRequest>* traces[2] = {&diurnal_, &burst_};
    size_t cell = 0;
    for (const std::vector<ServeRequest>* trace : traces) {
      for (const auto& [policy_name, policy] : Policies()) {
        InferenceServer server(*ladder_, data_.test, &model_, policy);
        Span span(tracer, "serve.replay", static_cast<int64_t>(cell));
        auto report = server.Replay(*trace);
        const double seconds = span.End();
        GREEN_CHECK(report.ok());
        const ServeReport& r = *report;
        out.items += r.arrived;
        out.failed += r.rejected + r.deadline_exceeded;
        out.item_digests.push_back(ServeSummary(ServeCells()[cell], r));
        batches += r.batches;
        answered += r.completed + r.degraded;
        degraded += r.degraded;
        joules += r.total_joules;
        for (const auto& [path, charge] : r.reading.scopes) {
          flops += charge.flops;
          charges += static_cast<double>(charge.charges);
        }
        if (layer != nullptr) {
          (*layer)["serve.replay_ms." + ServeCells()[cell]] = seconds * 1e3;
        }
        reports_.push_back(std::move(report).value());
        ++cell;
      }
    }
    if (layer != nullptr) {
      LayerValues& v = *layer;
      v["serve.batches"] = static_cast<double>(batches);
      v["serve.rows_per_batch"] =
          batches > 0 ? static_cast<double>(answered) / batches : 0.0;
      v["serve.degraded_ratio"] =
          out.items > 0 ? static_cast<double>(degraded) / out.items : 0.0;
      v["energy.kwh_per_round"] = joules / 3.6e6;
      v["sim.gflop_per_item"] = out.items > 0 ? flops / 1e9 / out.items : 0;
      v["sim.charges_per_item"] = out.items > 0 ? charges / out.items : 0;
    }
    return out;
  }

  EnergyModel model_;
  Dataset dataset_;
  TrainTestData data_;
  std::optional<ArtifactLadder> ladder_;
  std::vector<ServeRequest> diurnal_;
  std::vector<ServeRequest> burst_;
  std::vector<ServeReport> reports_;
  std::vector<double> ladder_build_seconds_;
};

// --- dev_tuning -------------------------------------------------------------

constexpr uint64_t kTuneSeed = 42;

class TuneWorkload : public Workload {
 public:
  /// Round i is one tuning campaign on corpus i mod kCorpora. A
  /// campaign's cost follows its BO trajectory and pruning decisions,
  /// which the data steer, so the run reports the median over many
  /// independent campaigns rather than one long one.
  static constexpr size_t kCorpora = 32;
  static constexpr int kBoIterations = 25;

  TuneWorkload() : model_(MachineModel::XeonGold6132()) {}

  void Setup(uint64_t seed, Tracer* tracer) override {
    // bench/fig7's development-stage corpus: 24 binary datasets capped
    // at 400 rows.
    corpora_.clear();
    SimulationProfile profile = SimulationProfile::Fast();
    profile.max_rows = 400;
    Span span(tracer, "data.instantiate");
    for (size_t k = 0; k < kCorpora; ++k) {
      MetaCorpusOptions options;
      options.num_datasets = 24;
      options.seed = HashCombine(seed, k);
      corpora_.push_back(GenerateMetaCorpus(options, profile).value());
    }
  }

  size_t Cycle() const override { return kCorpora; }

  RoundOutput Round(size_t index) override {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model_, 1);
    auto tuned =
        AutoMlTuner(Options()).Tune(corpora_[index % kCorpora], &ctx);
    GREEN_CHECK(tuned.ok());
    result_ = std::move(tuned).value();
    const AutoMlTunerResult& r = result_;
    RoundOutput out;
    out.items = static_cast<uint64_t>(r.trials_run);
    out.item_digests.push_back(StrFormat(
        "%d|%d|%.10g|%.10g|%.10g|%s|%.10g|%.10g|%.10g|%d|%d|%d",
        r.trials_run, r.trials_pruned, r.best_objective,
        r.best_mean_accuracy, r.development.kwh(),
        Join(r.best_params.models, ",").c_str(),
        r.best_params.holdout_fraction, r.best_params.evaluation_fraction,
        r.best_params.sampling_fraction, r.best_params.refit,
        r.best_params.random_validation_split,
        r.best_params.incremental_training));
    return out;
  }

  void Verify(Checks* checks) override {
    checks->Expect(result_.trials_run == kBoIterations,
                   StrFormat("tuner ran %d of %d trials", result_.trials_run,
                             kBoIterations));
    checks->Expect(result_.development.kwh() > 0.0,
                   "tuning metered no development energy");
  }

  RoundOutput TracedRound(size_t index, Tracer* tracer,
                          LayerValues* layer) override {
    Span span(tracer, "metaopt.tune", static_cast<int64_t>(index));
    RoundOutput out = Round(index);
    const double seconds = span.End();
    double flops = 0.0, charges = 0.0;
    for (const auto& [path, charge] : result_.development.scopes) {
      flops += charge.flops;
      charges += static_cast<double>(charge.charges);
    }
    const double trials = std::max(1, result_.trials_run);
    LayerValues& v = *layer;
    v["metaopt.tune_ms"] = seconds * 1e3;
    v["metaopt.trial_ms"] = seconds * 1e3 / trials;
    v["metaopt.useful_trial_ratio"] = 1.0 - result_.trials_pruned / trials;
    v["energy.kwh_per_round"] = result_.development.kwh();
    v["sim.gflop_per_item"] = flops / 1e9 / trials;
    v["sim.charges_per_item"] = charges / trials;
    return out;
  }

  void TraceExtras(Tracer* tracer, LayerValues* layer,
                   Checks* checks) override {
    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
      Span span(tracer, "metaopt.representatives");
      checks->Expect(
          SelectRepresentativeDatasets(corpora_.front(),
                                       Options().top_k_datasets, kTuneSeed)
              .ok(),
          "representative selection failed");
      seconds.push_back(span.End());
    }
    (*layer)["metaopt.representatives_ms"] = Median(seconds) * 1e3;
  }

  const Dataset& LargestTable() const override {
    return Largest(corpora_.front());
  }

 private:
  static AutoMlTunerOptions Options() {
    AutoMlTunerOptions options;
    options.search_time_seconds = 10.0 * 0.15;
    options.bo_iterations = kBoIterations;
    options.top_k_datasets = 5;
    options.repetitions = 1;
    options.seed = kTuneSeed;
    return options;
  }

  EnergyModel model_;
  std::vector<std::vector<Dataset>> corpora_;
  AutoMlTunerResult result_;
};

// --- workload table ---------------------------------------------------------

const std::vector<std::string> kPaperSystems = {
    "tabpfn", "caml", "flaml", "autogluon", "autosklearn1", "autosklearn2",
    "tpot"};

std::vector<Dataset> MixedSuite(uint64_t seed) {
  // bench/mixed_task_sweep's suite; the default seed keeps its inputs.
  std::vector<Dataset> suite;
  SyntheticSpec binary;
  binary.name = "syn_binary";
  binary.num_rows = 160;
  binary.num_features = 10;
  binary.num_informative = 6;
  binary.num_categorical = 2;
  binary.seed = InputSeed(seed, 404, 71);
  suite.push_back(GenerateSynthetic(binary).value());

  SyntheticSpec multiclass;
  multiclass.name = "syn_4class";
  multiclass.num_rows = 200;
  multiclass.num_features = 12;
  multiclass.num_classes = 4;
  multiclass.num_informative = 8;
  multiclass.separation = 2.5;
  multiclass.seed = InputSeed(seed, 404, 72);
  suite.push_back(GenerateSynthetic(multiclass).value());

  SyntheticRegressionSpec regression;
  regression.name = "syn_regression";
  regression.num_rows = 180;
  regression.num_features = 10;
  regression.num_informative = 6;
  regression.num_categorical = 2;
  regression.seed = InputSeed(seed, 404, 73);
  suite.push_back(GenerateSyntheticRegression(regression).value());
  return suite;
}

struct WorkloadEntry {
  const char* name;
  uint64_t default_seed;
};

const std::vector<WorkloadEntry>& Workloads() {
  static const std::vector<WorkloadEntry>* kEntries =
      new std::vector<WorkloadEntry>{{"paper_sweep", 42},
                                     {"large_tables", 42},
                                     {"mixed_parallel", 404},
                                     {"serve_replay", kServeSeed},
                                     {"dev_tuning", kTuneSeed}};
  return *kEntries;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir) {
  if (name == "paper_sweep") {
    // The paper's execution-stage grid on the first 8 AMLB tasks (Fast
    // profile, <= 1058 rows): many small pipelines per cell.
    SweepShape shape;
    shape.systems = kPaperSystems;
    shape.budgets = {10.0, 30.0, 60.0, 300.0};
    shape.budget_scale = 0.05;
    shape.make_suite = [](uint64_t seed) {
      return InstantiateAmlbSuite(SimulationProfile::Fast(), seed, 8).value();
    };
    return std::make_unique<SweepWorkload>(std::move(shape), work_dir);
  }
  if (name == "large_tables") {
    // Every fifth of the 20 AMLB tasks whose Full-profile instantiation
    // exceeds the Fast 1400-row cap (Fashion-MNIST, albert, connect-4,
    // adult: 1768-4000 rows x 8-67 features): few pipelines per cell,
    // each with several times the row work of paper_sweep.
    SweepShape shape;
    shape.systems = kPaperSystems;
    shape.budgets = {300.0};
    shape.budget_scale = 0.1;
    shape.make_suite = [](uint64_t seed) {
      std::vector<Dataset> all =
          InstantiateAmlbSuite(SimulationProfile::Full(), seed).value();
      std::vector<Dataset> large;
      size_t index = 0;
      for (Dataset& task : all) {
        if (task.num_rows() <= SimulationProfile::Fast().max_rows) continue;
        if (index++ % 5 == 0) large.push_back(std::move(task));
      }
      return large;
    };
    return std::make_unique<SweepWorkload>(std::move(shape), work_dir);
  }
  if (name == "mixed_parallel") {
    // The BENCH_mixed_tasks.json grid (binary, 4-class and regression;
    // every system name) at more repetitions, on min(4, nproc) workers,
    // journaled and then resumed from the full journal.
    SweepShape shape;
    shape.config_seed = 404;
    shape.systems = AllSystemNames();
    shape.budgets = {10.0, 60.0};
    shape.budget_scale = 0.05;
    shape.repetitions = 20;
    shape.jobs = std::min(4, ThreadPool::DefaultThreads());
    shape.collect_scopes = true;
    shape.journal_and_resume = true;
    shape.make_suite = MixedSuite;
    return std::make_unique<SweepWorkload>(std::move(shape), work_dir);
  }
  if (name == "serve_replay") return std::make_unique<ServeWorkload>();
  if (name == "dev_tuning") return std::make_unique<TuneWorkload>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Probes: one layer function at a time, on the workload's largest table.

void ProbeLayers(const Dataset& table, uint64_t seed, Tracer* tracer,
                 LayerValues* layer, Checks* checks) {
  LayerValues& v = *layer;
  const EnergyModel model(MachineModel::XeonGold6132());
  // A row sample keeps the probes short on the largest tables; the
  // metrics are per row.
  constexpr size_t kProbeRows = 600;
  Rng sample_rng(HashCombine(seed, 0x9b));
  Dataset probe = table;
  if (probe.num_rows() > kProbeRows) {
    probe = table.Subset(SampleRows(table, kProbeRows, &sample_rng));
    probe.Materialize();
  }
  const TrainTestData data =
      Materialize(probe, SplitForTask(probe, 0.66, &sample_rng));
  const double train_rows = static_cast<double>(data.train.num_rows());
  const double test_rows = static_cast<double>(data.test.num_rows());

  // ml: BuildPipeline (default preprocessing) + Fit / PredictProba.
  for (const std::string& name : ModelNames()) {
    if (!ModelSupportsTask(name, table.task())) continue;
    PipelineConfig config;
    config.model = name;
    config.seed = seed;
    std::vector<double> fit, predict;
    for (int rep = 0; rep < 3; ++rep) {
      auto pipeline = BuildPipeline(config);
      checks->Expect(pipeline.ok(), "BuildPipeline failed for " + name);
      if (!pipeline.ok()) break;
      VirtualClock clock;
      ExecutionContext ctx(&clock, &model, 1);
      Span fit_span(tracer, "ml.fit");
      checks->Expect(pipeline->Fit(data.train, &ctx).ok(),
                     "probe fit failed for " + name);
      fit.push_back(fit_span.End());
      Span predict_span(tracer, "ml.predict");
      checks->Expect(pipeline->PredictProba(data.test, &ctx).ok(),
                     "probe predict failed for " + name);
      predict.push_back(predict_span.End());
    }
    v["ml.fit_us_per_row." + name] = Median(fit) * 1e6 / train_rows;
    v["ml.predict_us_per_row." + name] = Median(predict) * 1e6 / test_rows;
  }

  // search: the BO surrogate at 50 and 300 observations of the
  // 14-dimensional tuner space, and Caruana selection over 16 members.
  Rng rng(HashCombine(seed, 0x5e));
  for (int n : {50, 300}) {
    std::vector<std::vector<double>> x(n, std::vector<double>(14));
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
      for (double& value : x[i]) value = rng.NextDouble();
      y[i] = rng.NextDouble();
    }
    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
      RfSurrogate::Options options;
      options.seed = seed;
      RfSurrogate surrogate(options);
      Span span(tracer, "search.surrogate_fit");
      surrogate.Fit(x, y);
      seconds.push_back(span.End());
    }
    v[StrFormat("search.surrogate_fit_ms.n%d", n)] = Median(seconds) * 1e3;
  }
  {
    const int classes = std::max(2, table.num_classes());
    const size_t rows = std::min<size_t>(400, table.num_rows());
    std::vector<int> labels(rows);
    for (int& label : labels) {
      label = static_cast<int>(rng.NextBounded(classes));
    }
    std::vector<ProbaMatrix> library(16, ProbaMatrix(rows));
    for (ProbaMatrix& member : library) {
      for (std::vector<double>& row : member) {
        row.resize(classes);
        double sum = 0.0;
        for (double& p : row) sum += p = rng.NextDouble() + 1e-3;
        for (double& p : row) p /= sum;
      }
    }
    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
      Span span(tracer, "search.caruana");
      const CaruanaResult result =
          CaruanaEnsembleSelection(library, labels, classes, CaruanaOptions());
      seconds.push_back(span.End());
      checks->Expect(!result.weights.empty(), "caruana returned no weights");
    }
    v["search.caruana_ms"] = Median(seconds) * 1e3;
  }

  // sim: one metered CPU charge inside a 5-deep scope stack.
  {
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
      VirtualClock clock;
      ExecutionContext ctx(&clock, &model, 1);
      EnergyMeter meter(&model);
      meter.Start(clock.Now());
      ctx.SetMeter(&meter);
      ChargeScope a(&ctx, "system"), b(&ctx, "search"), c(&ctx, "pipeline"),
          d(&ctx, "fit"), e(&ctx, "model");
      constexpr int kCharges = 200000;
      Span span(tracer, "sim.charge");
      for (int i = 0; i < kCharges; ++i) ctx.ChargeCpu(100.0, 64.0);
      ns.push_back(span.End() * 1e9 / kCharges);
      ctx.SetMeter(nullptr);
    }
    v["sim.charge_ns"] = Median(ns);
  }
}

// ---------------------------------------------------------------------------
// Command line and main loop.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string root = PERF_BENCH_ROOT;
  std::string work_dir;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perf_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--root DIR] "
               "[--work-dir DIR]\nworkloads:");
  for (const WorkloadEntry& entry : Workloads()) {
    std::fprintf(stderr, " %s", entry.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      options.seed_given = true;
      if (*end != '\0' || value.empty()) return std::nullopt;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--root") {
      options.root = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (options.work_dir.empty()) {
    options.work_dir = options.root + "/.bench_build/work";
  }
  return options;
}

/// The library reads GREEN_KERNELS, GREEN_CHARGE_SLICE, GREEN_TRACE,
/// GREEN_FULL and more itself; any of them would change what is measured.
bool EnvironmentClean() {
  bool clean = true;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "GREEN_", 6) == 0) {
      std::fprintf(stderr, "perf_bench: refusing to run with %s set\n",
                   std::string(*entry, std::strcspn(*entry, "=")).c_str());
      clean = false;
    }
  }
  return clean;
}

/// A private directory under the work dir, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::error_code error;
    std::filesystem::create_directories(parent, error);
    std::string pattern = parent + "/perf_bench-XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::error_code error;
    std::filesystem::remove_all(path_, error);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string GoldenDigest(const std::string& root, const std::string& name) {
  std::ifstream in(root + "/perfbench/golden.txt");
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string workload, digest;
    if (fields >> workload >> digest && workload == name) return digest;
  }
  return "";
}

struct TimedRound {
  double wall = 0.0;
  double cpu = 0.0;
  RoundOutput output;
};

template <typename Fn>
TimedRound Time(Fn&& fn) {
  TimedRound round;
  const double wall = WallSeconds();
  const double cpu = CpuSeconds();
  round.output = fn();
  round.wall = WallSeconds() - wall;
  round.cpu = CpuSeconds() - cpu;
  if (round.output.traced_part_seconds < 0.0) {
    round.output.traced_part_seconds = round.wall;
  }
  return round;
}

std::string JsonNumber(double value) {
  return std::isfinite(value) ? StrFormat("%.17g", value) : "0";
}

int Main(int argc, char** argv) {
  if (!EnvironmentClean()) return 2;
  const std::optional<Options> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) return Usage();
  Options options = *parsed;
  const auto entry = std::find_if(
      Workloads().begin(), Workloads().end(),
      [&](const WorkloadEntry& e) { return options.workload == e.name; });
  if (entry == Workloads().end()) return Usage();
  if (!options.seed_given) options.seed = entry->default_seed;
  SetLogLevel(LogLevel::kWarning);

  TempDir work_dir(options.work_dir);
  if (work_dir.path().empty()) {
    std::fprintf(stderr, "perf_bench: cannot create a directory in %s\n",
                 options.work_dir.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, work_dir.path());
  Tracer tracer;
  Tracer* spans = options.trace ? &tracer : nullptr;
  Checks checks;

  // Set-up, several times: at least three, and while they add up to
  // less than half a second, so that short set-ups get a steady median.
  std::vector<double> setup_seconds;
  std::vector<double> instantiate_seconds;
  while (setup_seconds.size() < 3 ||
         (setup_seconds.size() < 200 &&
          std::accumulate(setup_seconds.begin(), setup_seconds.end(), 0.0) <
              0.5)) {
    const size_t mark = tracer.size();
    Span span(nullptr, "setup");
    workload->Setup(options.seed, spans);
    setup_seconds.push_back(span.End());
    for (const SpanRecord& s : tracer.Since(mark)) {
      if (s.name == "data.instantiate") {
        instantiate_seconds.push_back(s.seconds());
      }
    }
  }

  // Measured phase: rounds until --seconds have passed. With --trace 1
  // each untraced round is followed by its traced decomposition.
  std::vector<TimedRound> plain, traced;
  std::vector<LayerValues> traced_layers;
  const double start = WallSeconds();
  for (size_t index = 0;
       plain.empty() || WallSeconds() - start < options.seconds; ++index) {
    plain.push_back(Time([&] { return workload->Round(index); }));
    std::fprintf(stderr, "perf_bench: round %zu: %.3f s wall, %.3f s cpu\n",
                 index, plain.back().wall, plain.back().cpu);
    workload->Verify(&checks);
    if (!options.trace) continue;
    traced_layers.emplace_back();
    traced.push_back(Time([&] {
      return workload->TracedRound(index, &tracer, &traced_layers.back());
    }));
  }
  const double peak_rss_mb = PeakRssMb();

  // Rounds that do the same work must produce the same outputs, and each
  // traced decomposition must reproduce its untraced round item by item.
  const size_t cycle = workload->Cycle();
  for (size_t i = 0; i < plain.size(); ++i) {
    checks.Expect(plain[i].output.item_digests ==
                      plain[i % cycle].output.item_digests,
                  "rounds disagree: the workload is not deterministic");
    if (i < traced.size()) {
      checks.Expect(traced[i].output.item_digests ==
                        plain[i].output.item_digests,
                    "traced decomposition differs from the untraced round");
    }
  }
  const RoundOutput& first = plain.front().output;
  if (plain.size() <= cycle) {
    // Round 0's work never came round again: repeat it, untimed.
    checks.Expect(workload->Round(0).item_digests == first.item_digests,
                  "round 0 repeated disagrees: the workload is not "
                  "deterministic");
  }
  const std::string digest = first.Digest();
  std::printf("digest %s seed=%llu %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), digest.c_str());
  // The checked-in oracles hold only for the default seed's inputs, so
  // at any other seed a second instance repeats round 0 on those inputs,
  // untimed: every run checks the outputs against them.
  if (options.seed == entry->default_seed) {
    checks.Expect(digest == GoldenDigest(options.root, options.workload),
                  "digest differs from perfbench/golden.txt");
    workload->CheckSnapshots(options.root, &checks);
  } else {
    std::unique_ptr<Workload> oracle =
        MakeWorkload(options.workload, work_dir.path());
    oracle->Setup(entry->default_seed, nullptr);
    const std::string oracle_digest = oracle->Round(0).Digest();
    oracle->Verify(&checks);
    checks.Expect(
        oracle_digest == GoldenDigest(options.root, options.workload),
        "default-seed digest differs from perfbench/golden.txt");
    oracle->CheckSnapshots(options.root, &checks);
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!options.trace) {
    std::vector<double> rates, cpu_ms;
    for (const TimedRound& round : plain) {
      const double items = std::max<double>(1.0, round.output.items);
      rates.push_back(items / round.wall);
      cpu_ms.push_back(round.cpu * 1e3 / items);
    }
    const double values[] = {Median(rates), Median(cpu_ms), peak_rss_mb,
                             Median(setup_seconds)};
    for (size_t i = 0; i < EndToEndMetrics().size(); ++i) {
      metrics.push_back({EndToEndMetrics()[i], values[i]});
    }
  } else {
    LayerValues layer;
    std::map<std::string, std::vector<double>> per_round;
    for (const LayerValues& values : traced_layers) {
      for (const auto& [name, value] : values) per_round[name].push_back(value);
    }
    for (const auto& [name, values] : per_round) layer[name] = Median(values);
    std::vector<double> overhead;
    for (size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back(traced[i].wall /
                         plain[i].output.traced_part_seconds);
    }
    layer["trace.overhead_ratio"] = Median(overhead);
    layer["data.instantiate_ms"] = Median(instantiate_seconds) * 1e3;
    workload->TraceExtras(&tracer, &layer, &checks);
    ProbeLayers(workload->LargestTable(), options.seed, &tracer, &layer,
                &checks);
    for (const MetricDef& def : LayerMetrics()) {
      metrics.push_back({def, layer.count(def.name) ? layer[def.name] : 0.0});
    }
    if (!options.trace_out.empty()) {
      checks.Expect(tracer.WriteChromeJson(options.trace_out),
                    "cannot write " + options.trace_out);
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const std::vector<TimedRound>* rounds : {&plain, &traced}) {
    for (const TimedRound& round : *rounds) {
      attempted += round.output.items;
      failed += round.output.failed;
    }
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    std::printf("%s %s %.6g %s\n", options.workload.c_str(), def.name.c_str(),
                value, def.unit.c_str());
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i > 0 ? ", " : "", def.name.c_str(),
                      JsonNumber(value).c_str(), def.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
