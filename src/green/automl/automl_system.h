#ifndef GREEN_AUTOML_AUTOML_SYSTEM_H_
#define GREEN_AUTOML_AUTOML_SYSTEM_H_

#include <limits>
#include <memory>
#include <string>

#include "green/automl/fitted_artifact.h"
#include "green/energy/energy_meter.h"
#include "green/ml/model_registry.h"
#include "green/sim/budget_policy.h"
#include "green/sim/execution_context.h"
#include "green/table/dataset.h"
#include "green/table/split.h"

namespace green {

/// Options common to all systems (each system additionally has its own
/// parameter struct — those are the "AutoML system parameters" the
/// paper's development stage tunes).
struct AutoMlOptions {
  /// The search-time termination criterion of the paper's §3.2. How
  /// strictly it is honoured depends on the system's BudgetPolicyKind
  /// (Table 7).
  double search_budget_seconds = 60.0;
  int cores = 1;
  uint64_t seed = 1;
  /// CAML-style ML-application constraint: maximum admissible inference
  /// time per instance (seconds); infinity disables it.
  double max_inference_seconds_per_row =
      std::numeric_limits<double>::infinity();
};

/// Outcome of one AutoML execution.
struct AutoMlRunResult {
  FittedArtifact artifact;
  /// Energy metered over the whole execution, including any overrun
  /// beyond the configured budget.
  EnergyReading execution;
  double configured_budget_seconds = 0.0;
  double actual_seconds = 0.0;
  int pipelines_evaluated = 0;
  double best_validation_score = 0.0;
};

/// The incumbent of a single-pipeline search.
struct Incumbent {
  std::shared_ptr<Pipeline> pipeline;
  double score = -std::numeric_limits<double>::infinity();
  PipelineConfig config;
};

/// Interface every miniature AutoML system implements. Fit() is the one
/// measurement protocol all systems run under; each system supplies only
/// its search strategy (Search) and its declared limits.
class AutoMlSystem {
 public:
  virtual ~AutoMlSystem() = default;

  virtual std::string Name() const = 0;

  /// Smallest supported PAPER-scale budget; e.g. AutoSklearn has no 10 s
  /// mode and TPOT only supports minutes (the gaps in the paper's Fig. 3
  /// series). Metadata for the experiment harness, which gates budget
  /// points before scaling them to virtual seconds.
  virtual double MinBudgetSeconds() const { return 0.0; }

  /// Smallest training table Fit accepts; smaller ones are rejected with
  /// InvalidArgument before any work is metered.
  virtual size_t MinTrainRows() const { return 4; }

  virtual BudgetPolicyKind budget_policy() const = 0;

  /// Whether the system can fit datasets of this task type. Systems that
  /// cannot (e.g. TabPFN is classification-only) return false here, and
  /// Fit rejects the task with Unimplemented; the harness maps either
  /// signal to a skipped cell rather than a failure.
  virtual bool SupportsTask(TaskType task) const {
    (void)task;
    return true;
  }

  /// The paper's execution protocol (§3.2), the same for every system.
  /// Rejects an unsupported task, a table below MinTrainRows() and an
  /// already-cancelled context, in that order and before any meter
  /// starts. Then meters Search under a `Name()` charge scope with the
  /// context's deadline armed at the search budget, and clears the
  /// deadline again on every return path.
  Result<AutoMlRunResult> Fit(const Dataset& train,
                              const AutoMlOptions& options,
                              ExecutionContext* ctx);

 protected:
  /// The system's search strategy. Runs inside Fit's frame (metered,
  /// under the `Name()` scope, ctx->deadline() armed) and fills the
  /// artifact, `pipelines_evaluated` and `best_validation_score` of
  /// `result`; Fit fills the rest.
  virtual Status Search(const Dataset& train, const AutoMlOptions& options,
                        ExecutionContext* ctx, AutoMlRunResult* result) = 0;

  /// Whether budget_policy() lets an evaluation expected to take
  /// `estimated_seconds` start now, against the deadline Fit armed.
  bool MayStartEvaluation(const ExecutionContext& ctx,
                          double estimated_seconds) const;

  /// The epilogue of a single-pipeline search. If the search left `best`
  /// empty, TrainFallback(`fallback`) takes its place (the any-time
  /// guarantee). With `refit_data`, a "refit" scope then retrains the
  /// winner's config on it if MayStartEvaluation admits the estimated
  /// training time; a failed refit keeps the winner. The winner becomes
  /// the artifact.
  Status FinishSingle(Incumbent best, const PipelineConfig& fallback,
                      const TrainTestData& holdout,
                      const Dataset* refit_data, ExecutionContext* ctx,
                      AutoMlRunResult* result) const;
};

/// Unimplemented unless `system` supports `task`: the rejection the Fit
/// frame and the experiment harness both report.
Status CheckTaskSupported(const AutoMlSystem& system, TaskType task);

/// One evaluated candidate during search: the fitted pipeline plus its
/// holdout score and probabilities (kept for post-hoc ensembling).
struct EvaluatedPipeline {
  std::shared_ptr<Pipeline> pipeline;
  double val_score = 0.0;
  ProbaMatrix val_proba;
};

/// Builds a pipeline from `config`, fits it on `fit_data`, and scores
/// balanced accuracy on `val_data`. All work is charged to `ctx`.
Result<EvaluatedPipeline> TrainAndScore(const PipelineConfig& config,
                                        const Dataset& fit_data,
                                        const Dataset& val_data,
                                        ExecutionContext* ctx);

/// Estimated virtual seconds to score one row with `pipeline` on the
/// context's machine — the quantity CAML's inference constraint bounds.
double EstimateInferenceSecondsPerRow(const Pipeline& pipeline,
                                      size_t raw_num_features,
                                      const ExecutionContext& ctx);

/// Estimated virtual seconds to train `config` on (rows x features).
double EstimateTrainSeconds(const PipelineConfig& config, size_t rows,
                            size_t features, int classes,
                            const ExecutionContext& ctx);

/// Estimated virtual seconds for one full evaluation: training on
/// `train_rows` plus scoring `val_rows` (which dominates for
/// memory-based models like kNN). Budget policies gate on this.
double EstimateEvaluationSeconds(const PipelineConfig& config,
                                 size_t train_rows, size_t val_rows,
                                 size_t features, int classes,
                                 const ExecutionContext& ctx);

/// The any-time fallback's default: the cheapest model for `task`.
PipelineConfig CheapestConfig(TaskType task, uint64_t seed);

/// Any-time guarantee for searches that finished no pipeline (extreme
/// budgets): trains `config` on the hold-out split under a "fallback"
/// scope and counts it in `result->pipelines_evaluated`.
Result<EvaluatedPipeline> TrainFallback(const PipelineConfig& config,
                                        const TrainTestData& holdout,
                                        ExecutionContext* ctx,
                                        AutoMlRunResult* result);

/// Meters `ctx` around a callable; restores any previously attached meter.
class ScopedMeter {
 public:
  ScopedMeter(ExecutionContext* ctx, EnergyMeter* meter)
      : ctx_(ctx), previous_(ctx->meter()) {
    meter->Start(ctx->Now());
    ctx_->SetMeter(meter);
    meter_ = meter;
  }
  ~ScopedMeter() { ctx_->SetMeter(previous_); }

  ScopedMeter(const ScopedMeter&) = delete;
  ScopedMeter& operator=(const ScopedMeter&) = delete;

  EnergyReading Stop() {
    ctx_->SetMeter(previous_);
    return meter_->Stop(ctx_->Now());
  }

 private:
  ExecutionContext* ctx_;
  EnergyMeter* previous_;
  EnergyMeter* meter_ = nullptr;
};

}  // namespace green

#endif  // GREEN_AUTOML_AUTOML_SYSTEM_H_
