#ifndef GREEN_ML_METRICS_H_
#define GREEN_ML_METRICS_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Mean per-class recall — the paper's primary quality metric because it
/// "can handle multi-class and unbalanced classification problems".
/// Classes absent from `truth` are skipped.
double BalancedAccuracy(const std::vector<int>& truth,
                        const std::vector<int>& predicted, int num_classes);

// --- regression metrics ---

/// Root mean squared error.
double Rmse(const std::vector<double>& truth,
            const std::vector<double>& predicted);

/// Coefficient of determination; 0 when truth has zero variance and the
/// prediction is not exact.
double R2(const std::vector<double>& truth,
          const std::vector<double>& predicted);

// --- task dispatch ---

/// Name of the task's primary quality metric: "balanced_accuracy" for
/// classification (the paper's choice), "rmse" for regression.
const char* PrimaryMetricName(TaskType task);

/// The primary metric of `proba` against `truth`'s labels or targets:
/// balanced accuracy of the argmax for classification, RMSE of column 0
/// for regression (regression predictions are n-by-1 ProbaMatrix rows).
double PrimaryMetric(const Dataset& truth, const ProbaMatrix& proba);

/// Higher-is-better version of PrimaryMetric: balanced accuracy as-is,
/// negated RMSE for regression. Every search strategy (Caruana, BO,
/// NSGA-II, successive halving, median pruning) maximizes this score, so
/// regression losses need no special-casing downstream.
double PrimaryScore(const Dataset& truth, const ProbaMatrix& proba);

/// Converts a higher-is-better score back to the reported metric value
/// (identity for classification, negation for regression).
double MetricFromScore(TaskType task, double score);

}  // namespace green

#endif  // GREEN_ML_METRICS_H_
