#include "green/ml/models/naive_bayes.h"

#include <cmath>

#include "green/common/mathutil.h"

namespace green {

Status GaussianNaiveBayes::Fit(const Dataset& train,
                               ExecutionContext* ctx) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  const int k = train.num_classes();
  if (n == 0) return Status::InvalidArgument("nb: empty training data");
  if (train.task() == TaskType::kRegression) {
    return Status::Unimplemented("naive_bayes: regression not supported");
  }

  ChargeScope scope(ctx, Name());
  num_features_ = d;
  mean_.assign(static_cast<size_t>(k) * d, 0.0);
  var_.assign(static_cast<size_t>(k) * d, 0.0);
  log_norm_.assign(static_cast<size_t>(k) * d, 0.0);
  log_prior_.assign(static_cast<size_t>(k), 0.0);

  const std::vector<int> counts = train.ClassCounts();
  for (size_t r = 0; r < n; ++r) {
    const size_t c = static_cast<size_t>(train.Label(r));
    for (size_t j = 0; j < d; ++j) mean_[c * d + j] += train.At(r, j);
  }
  for (int c = 0; c < k; ++c) {
    const size_t cc = static_cast<size_t>(c);
    const double nc = std::max(1.0, static_cast<double>(counts[cc]));
    for (size_t j = 0; j < d; ++j) mean_[cc * d + j] /= nc;
    log_prior_[cc] = std::log(
        std::max(1e-12, static_cast<double>(counts[cc]) /
                            static_cast<double>(n)));
  }
  for (size_t r = 0; r < n; ++r) {
    const size_t c = static_cast<size_t>(train.Label(r));
    for (size_t j = 0; j < d; ++j) {
      const double dlt = train.At(r, j) - mean_[c * d + j];
      var_[c * d + j] += dlt * dlt;
    }
  }
  for (int c = 0; c < k; ++c) {
    const size_t cc = static_cast<size_t>(c);
    const double nc = std::max(1.0, static_cast<double>(counts[cc]));
    for (size_t j = 0; j < d; ++j) {
      var_[cc * d + j] =
          var_[cc * d + j] / nc + params_.var_smoothing + 1e-9;
      log_norm_[cc * d + j] = std::log(2.0 * M_PI * var_[cc * d + j]);
    }
  }
  ctx->ChargeCpu(4.0 * static_cast<double>(n * d), train.FeatureBytes(),
                 /*parallel_fraction=*/0.8);
  MarkFitted(k);
  return Status::Ok();
}

Result<ProbaMatrix> GaussianNaiveBayes::PredictProba(
    const Dataset& data, ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("nb not fitted");
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("nb: feature count mismatch");
  }
  ChargeScope scope(ctx, Name());
  const size_t d = num_features_;
  const int k = num_classes();
  ProbaMatrix out(data.num_rows());
  double flops = 0.0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    std::vector<double> log_like(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) {
      const size_t cc = static_cast<size_t>(c);
      double ll = log_prior_[cc];
      for (size_t j = 0; j < d; ++j) {
        const double v = var_[cc * d + j];
        const double dlt = data.At(r, j) - mean_[cc * d + j];
        ll += -0.5 * (log_norm_[cc * d + j] + dlt * dlt / v);
      }
      log_like[cc] = ll;
    }
    SoftmaxInPlace(&log_like);
    out[r] = std::move(log_like);
    flops += 4.0 * static_cast<double>(k) * static_cast<double>(d);
  }
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.9);
  return out;
}

}  // namespace green
