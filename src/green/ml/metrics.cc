#include "green/ml/metrics.h"

#include <cmath>

#include "green/common/logging.h"

namespace green {

double BalancedAccuracy(const std::vector<int>& truth,
                        const std::vector<int>& predicted,
                        int num_classes) {
  GREEN_CHECK(truth.size() == predicted.size());
  std::vector<int> support(static_cast<size_t>(num_classes), 0);
  std::vector<int> hits(static_cast<size_t>(num_classes), 0);
  for (size_t i = 0; i < truth.size(); ++i) {
    const size_t c = static_cast<size_t>(truth[i]);
    GREEN_CHECK(truth[i] >= 0 && truth[i] < num_classes);
    ++support[c];
    if (truth[i] == predicted[i]) ++hits[c];
  }
  double sum = 0.0;
  int present = 0;
  for (int c = 0; c < num_classes; ++c) {
    if (support[static_cast<size_t>(c)] == 0) continue;
    sum += static_cast<double>(hits[static_cast<size_t>(c)]) /
           static_cast<double>(support[static_cast<size_t>(c)]);
    ++present;
  }
  return present > 0 ? sum / static_cast<double>(present) : 0.0;
}

double Rmse(const std::vector<double>& truth,
            const std::vector<double>& predicted) {
  GREEN_CHECK(truth.size() == predicted.size());
  if (truth.empty()) return 0.0;
  double sse = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double e = truth[i] - predicted[i];
    sse += e * e;
  }
  return std::sqrt(sse / static_cast<double>(truth.size()));
}

double R2(const std::vector<double>& truth,
          const std::vector<double>& predicted) {
  GREEN_CHECK(truth.size() == predicted.size());
  if (truth.empty()) return 0.0;
  double mean = 0.0;
  for (double y : truth) mean += y;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double e = truth[i] - predicted[i];
    ss_res += e * e;
    const double d = truth[i] - mean;
    ss_tot += d * d;
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

const char* PrimaryMetricName(TaskType task) {
  return task == TaskType::kRegression ? "rmse" : "balanced_accuracy";
}

namespace {

std::vector<double> RegressionValues(const ProbaMatrix& proba) {
  std::vector<double> values(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) {
    GREEN_CHECK(!proba[i].empty());
    values[i] = proba[i][0];
  }
  return values;
}

}  // namespace

double PrimaryMetric(const Dataset& truth, const ProbaMatrix& proba) {
  GREEN_CHECK(truth.num_rows() == proba.size());
  if (truth.task() == TaskType::kRegression) {
    return Rmse(truth.targets(), RegressionValues(proba));
  }
  std::vector<int> preds(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) {
    size_t best = 0;
    for (size_t c = 1; c < proba[i].size(); ++c) {
      if (proba[i][c] > proba[i][best]) best = c;
    }
    preds[i] = static_cast<int>(best);
  }
  return BalancedAccuracy(truth.labels(), preds, truth.num_classes());
}

double PrimaryScore(const Dataset& truth, const ProbaMatrix& proba) {
  const double metric = PrimaryMetric(truth, proba);
  return truth.task() == TaskType::kRegression ? -metric : metric;
}

double MetricFromScore(TaskType task, double score) {
  return task == TaskType::kRegression ? -score : score;
}

}  // namespace green
