#ifndef GREEN_ML_ESTIMATOR_H_
#define GREEN_ML_ESTIMATOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "green/common/status.h"
#include "green/sim/execution_context.h"
#include "green/table/dataset.h"

namespace green {

/// Class-probability matrix: one row per instance, one column per class.
using ProbaMatrix = std::vector<std::vector<double>>;

/// Base interface for all classifiers.
///
/// Every implementation is *instrumented*: Fit and PredictProba charge the
/// abstract work they perform through the ExecutionContext, which is what
/// drives virtual time and energy attribution. A model that does more work
/// is, by construction, a model that costs more energy — the paper's
/// central accounting principle.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Trains on `train`. Implementations must tolerate NaN-free data only;
  /// imputation is a pipeline concern.
  virtual Status Fit(const Dataset& train, ExecutionContext* ctx) = 0;

  /// Per-instance class probabilities for all rows of `data`.
  virtual Result<ProbaMatrix> PredictProba(const Dataset& data,
                                           ExecutionContext* ctx) const = 0;

  /// Hard predictions (argmax of PredictProba by default).
  /// FailedPrecondition for regression-fitted estimators, which have no
  /// class labels to predict.
  virtual Result<std::vector<int>> Predict(const Dataset& data,
                                           ExecutionContext* ctx) const;

  /// Short identifier, e.g. "random_forest".
  virtual std::string Name() const = 0;

  /// Abstract work needed to score ONE instance with `num_features`
  /// features. Used by constraint-aware search (the paper's CAML
  /// inference-time constraint) and by deployment cost projections.
  virtual double InferenceFlopsPerRow(size_t num_features) const = 0;

  /// Rough model size proxy (parameters / nodes); reported alongside
  /// energy so "simpler model" claims are checkable.
  virtual double ComplexityProxy() const = 0;

  bool fitted() const { return fitted_; }
  int num_classes() const { return num_classes_; }
  /// Task the estimator was fitted for; regression models report k=1
  /// "probability" rows holding the predicted value.
  TaskType task() const { return task_; }

 protected:
  /// Classification-only convenience: infers binary/multiclass from the
  /// class count. Regression-capable models use the two-arg overload.
  void MarkFitted(int num_classes) {
    MarkFitted(num_classes, TaskTypeForClasses(num_classes));
  }
  void MarkFitted(int num_classes, TaskType task) {
    fitted_ = true;
    num_classes_ = num_classes;
    task_ = task;
  }

 private:
  bool fitted_ = false;
  int num_classes_ = 0;
  TaskType task_ = TaskType::kBinary;
};

/// The CPU work one transform charges: the arguments of its ChargeCpu.
struct TransformCharge {
  double flops = 0.0;
  double bytes = 0.0;
  double parallel_fraction = 0.9;
};

/// Base interface for feature transformers (preprocessors).
///
/// Fitting is Learn, which computes the fitted state and returns the work
/// it took, plus the one charge Fit issues for that work. A fitted
/// transformer is a row map. It implements three pieces, and every
/// transform (one transformer or a pipeline's whole chain, see
/// RunTransformChain) is built from them:
///   * TransformRow maps one input row to one output row;
///   * ChargeFor is the work a transform of `rows` rows charges, a
///     function of shape alone, so a chain can run first and charge after;
///   * OutputSchema describes the output columns. A transformer that
///     renames or retypes columns builds its schema once, in Fit, and
///     rebuilds it only for an input named differently.
/// Transform and the row pieces are const and may run concurrently on a
/// fitted transformer shared through the TransformCache.
class Transformer {
 public:
  virtual ~Transformer() = default;

  /// Learns the fitted state from `train`, then charges the work Learn
  /// reported under ChargeScope(ctx, Name()) — one charge per fit — and
  /// keeps it for ChargeFit. A failed Learn charges nothing.
  Status Fit(const Dataset& train, ExecutionContext* ctx);

  /// Re-issues the charge the last Fit issued, under the same scope: how
  /// a transform-cache hit accounts for a fit it did not redo.
  void ChargeFit(ExecutionContext* ctx) const;

  /// Transforms `data` through this transformer alone: a chain of length
  /// one.
  Result<Dataset> Transform(const Dataset& data, ExecutionContext* ctx) const;

  virtual std::string Name() const = 0;

  /// Deterministic signature of the transformer's *configuration*
  /// (constructor parameters, not fitted state). Contract: two
  /// transformers with equal signatures, fitted on identical data, reach
  /// identical fitted state — this keys the transform-prefix cache.
  /// Parameterized transformers MUST override to include every parameter
  /// that affects Fit/Transform.
  virtual std::string ConfigSignature() const { return Name(); }

  /// Abstract per-row transform cost at inference time.
  virtual double TransformFlopsPerRow(size_t num_features) const = 0;

  /// Output feature count for a given input width (identity by default;
  /// encoders/selectors override). Valid after Fit.
  virtual size_t OutputWidth(size_t input_width) const {
    return input_width;
  }

  // --- row kernel; valid after Fit ---
  /// Writes the OutputWidth(input_width()) values of the row `in` (one of
  /// input_width() values) maps to. `in` and `out` never overlap.
  virtual void TransformRow(const double* in, double* out) const = 0;

  /// The work transforming `rows` rows charges.
  virtual TransformCharge ChargeFor(size_t rows) const = 0;

  /// The output columns for input columns `input`; null when the input's
  /// own columns pass through unchanged (the default).
  virtual std::shared_ptr<Schema> OutputSchema(const Schema& input) const {
    return nullptr;
  }

  bool fitted() const { return fitted_; }
  /// The feature count Fit saw; a transform input must match it.
  size_t input_width() const { return input_width_; }

 protected:
  /// The transformer's fitting algorithm. Sets the fitted state from
  /// `train` and returns the work that took; charges nothing, so the
  /// clock stands still until Fit charges the returned work.
  virtual Result<TransformCharge> Learn(const Dataset& train) = 0;

  /// Logical footprint of a rows x width matrix, as Dataset::FeatureBytes.
  static double MatrixBytes(size_t rows, size_t width) {
    return static_cast<double>(rows) * static_cast<double>(width) *
           sizeof(double);
  }

 private:
  bool fitted_ = false;
  size_t input_width_ = 0;
  TransformCharge fit_charge_;
};

/// Sends every row of `data` through `chain` in order, ping-ponging
/// between two row buffers, into one output dataset: `data`'s rows,
/// labels (or targets), name and nominal size with the last
/// transformer's columns. Then charges the chain (ChargeTransformChain).
/// An unfitted transformer or a width mismatch anywhere in the chain
/// fails before any charge. An empty chain returns `data` itself.
Result<Dataset> RunTransformChain(std::span<const Transformer* const> chain,
                                  const Dataset& data, ExecutionContext* ctx);

/// Charges each transformer's ChargeFor(rows) under its own
/// ChargeScope(ctx, Name()), in chain order: what transforming `rows`
/// rows through `chain` costs, whether or not the rows are computed.
void ChargeTransformChain(std::span<const Transformer* const> chain,
                          size_t rows, ExecutionContext* ctx);

}  // namespace green

#endif  // GREEN_ML_ESTIMATOR_H_
