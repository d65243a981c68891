#include "green/ml/models/adaboost.h"

#include <algorithm>
#include <cmath>

#include "green/common/mathutil.h"
#include "green/common/rng.h"

namespace green {

Status AdaBoost::Fit(const Dataset& train, ExecutionContext* ctx) {
  const size_t n = train.num_rows();
  const int k = train.num_classes();
  if (n == 0) return Status::InvalidArgument("adaboost: empty data");
  if (train.task() == TaskType::kRegression) {
    return Status::Unimplemented("adaboost: regression not supported");
  }
  if (k < 2) return Status::InvalidArgument("adaboost: need >= 2 classes");
  ChargeScope scope(ctx, Name());
  stages_.clear();

  Rng rng(params_.seed);
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  std::vector<double> cumulative(n);
  double flops = 0.0;

  DecisionTreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = 2;
  // Every stage's weighted bootstrap draws n rows from the same table.
  GREEN_RETURN_IF_ERROR(CheckTreeIndexRange(n, n));
  GREEN_ASSIGN_OR_RETURN(const TablePresort presort,
                         TablePresort::Build(train));

  for (int round = 0; round < params_.num_rounds; ++round) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("adaboost: interrupted mid-fit");
    }
    // Weighted-bootstrap approximation of weighted fitting: draw n rows
    // from the current weight distribution.
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += weights[i];
      cumulative[i] = acc;
    }
    std::vector<size_t> sample(n);
    for (size_t& s : sample) {
      const double u = rng.NextDouble() * acc;
      s = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      if (s >= n) s = n - 1;
    }
    flops += static_cast<double>(n) *
             std::log2(std::max(2.0, static_cast<double>(n)));

    Rng tree_rng = rng.Fork();
    tree_params.seed = tree_rng.NextUint64();
    Stage stage(tree_params);
    GREEN_RETURN_IF_ERROR(
        stage.tree.FitCounted(train, &presort, sample, &tree_rng, &flops));

    // Weighted training error of the stage.
    ProbaMatrix proba;
    stage.tree.PredictProbaCounted(train, &proba, &flops);
    double err = 0.0;
    std::vector<int> preds(n);
    for (size_t i = 0; i < n; ++i) {
      preds[i] = static_cast<int>(ArgMax(proba[i]));
      if (preds[i] != train.Label(i)) err += weights[i];
    }
    err = Clamp(err, 1e-10, 1.0 - 1e-10);
    if (err >= 1.0 - 1.0 / static_cast<double>(k)) {
      // Worse than chance: SAMME stops (keep at least one stage).
      if (!stages_.empty()) break;
    }
    const double alpha =
        params_.learning_rate *
        (std::log((1.0 - err) / err) +
         std::log(static_cast<double>(k) - 1.0));
    stage.weight = std::max(1e-6, alpha);

    // Reweight: misclassified rows gain weight.
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (preds[i] != train.Label(i)) {
        weights[i] *= std::exp(stage.weight);
      }
      total += weights[i];
    }
    for (double& w : weights) w /= total;
    flops += 4.0 * static_cast<double>(n);

    stages_.push_back(std::move(stage));
    if (err <= 1e-9) break;  // Perfect stage; no signal left.
  }
  if (stages_.empty()) {
    return Status::Internal("adaboost: no usable stage fitted");
  }
  // Sequential rounds; only per-stage tree work parallelizes.
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.4);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("adaboost: interrupted mid-fit");
  }
  MarkFitted(k);
  return Status::Ok();
}

Result<ProbaMatrix> AdaBoost::PredictProba(const Dataset& data,
                                           ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("adaboost not fitted");
  ChargeScope scope(ctx, Name());
  const size_t k = static_cast<size_t>(num_classes());
  ProbaMatrix out(data.num_rows(), std::vector<double>(k, 0.0));
  double flops = 0.0;
  ProbaMatrix stage_out;
  for (const Stage& stage : stages_) {
    stage.tree.PredictProbaCounted(data, &stage_out, &flops);
    for (size_t i = 0; i < out.size(); ++i) {
      // SAMME votes with the stage's hard prediction, alpha-weighted.
      out[i][ArgMax(stage_out[i])] += stage.weight;
    }
    flops += static_cast<double>(data.num_rows());
  }
  for (auto& row : out) {
    double total = 0.0;
    for (double v : row) total += v;
    if (total <= 0.0) total = 1.0;
    for (double& v : row) v /= total;
  }
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.9);
  return out;
}

double AdaBoost::InferenceFlopsPerRow(size_t num_features) const {
  double sum = 0.0;
  for (const Stage& stage : stages_) {
    sum += stage.tree.InferenceFlopsPerRow(num_features);
  }
  return sum + static_cast<double>(stages_.size());
}

double AdaBoost::ComplexityProxy() const {
  double sum = 0.0;
  for (const Stage& stage : stages_) sum += stage.tree.ComplexityProxy();
  return sum;
}

}  // namespace green
