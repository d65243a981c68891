#include "green/ml/models/knn.h"

#include <algorithm>
#include <cmath>

#include "green/ml/kernels/distance_kernels.h"

namespace green {

Status Knn::Fit(const Dataset& train, ExecutionContext* ctx) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("knn: empty training data");
  }
  ChargeScope scope(ctx, Name());
  train_ = train;
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  train_cols_.resize(n * d);
  for (size_t r = 0; r < n; ++r) {
    const double* row = train.RowPtr(r);
    for (size_t j = 0; j < d; ++j) train_cols_[j * n + r] = row[j];
  }
  // Training is a copy: charge the bytes, not compute.
  ctx->ChargeCpu(static_cast<double>(train.num_rows()),
                 train.FeatureBytes());
  MarkFitted(train.num_classes(), train.task());
  return Status::Ok();
}

Result<ProbaMatrix> Knn::PredictProba(const Dataset& data,
                                      ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("knn not fitted");
  if (data.num_features() != train_.num_features()) {
    return Status::InvalidArgument("knn: feature count mismatch");
  }
  ChargeScope scope(ctx, Name());
  const size_t n_train = train_.num_rows();
  const size_t d = train_.num_features();
  const int k_classes = num_classes();
  const size_t k = std::min<size_t>(
      n_train, std::max<size_t>(1, static_cast<size_t>(params_.k)));

  ProbaMatrix out(data.num_rows());
  double flops = 0.0;
  std::vector<double> acc(n_train);
  std::vector<std::pair<double, size_t>> dist(n_train);
  for (size_t q = 0; q < data.num_rows(); ++q) {
    // Blocked column-major scan; per-distance adds run j-ascending.
    SquaredDistancesColMajor(train_cols_.data(), n_train, d,
                             data.RowPtr(q), acc.data());
    for (size_t r = 0; r < n_train; ++r) dist[r] = {acc[r], r};
    flops += 3.0 * static_cast<double>(n_train) * static_cast<double>(d);
    std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
    flops += static_cast<double>(n_train) *
             std::log2(std::max<double>(2.0, static_cast<double>(k)));

    if (task() == TaskType::kRegression) {
      // Regression: (distance-weighted) mean of the neighbor targets.
      double weight_sum = 0.0;
      double value_sum = 0.0;
      for (size_t i = 0; i < k; ++i) {
        const double w = params_.distance_weighted
                             ? 1.0 / (1.0 + std::sqrt(dist[i].first))
                             : 1.0;
        value_sum += w * train_.Target(dist[i].second);
        weight_sum += w;
      }
      out[q] = {value_sum / weight_sum};
      continue;
    }
    std::vector<double> votes(static_cast<size_t>(k_classes), 0.0);
    for (size_t i = 0; i < k; ++i) {
      const double w = params_.distance_weighted
                           ? 1.0 / (1.0 + std::sqrt(dist[i].first))
                           : 1.0;
      votes[static_cast<size_t>(train_.Label(dist[i].second))] += w;
    }
    double sum = 0.0;
    for (double v : votes) sum += v;
    for (double& v : votes) v /= sum;
    out[q] = std::move(votes);
  }
  ctx->ChargeCpu(flops, data.FeatureBytes() + train_.FeatureBytes(),
                 /*parallel_fraction=*/0.9);
  return out;
}

}  // namespace green
