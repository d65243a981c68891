#include "green/ml/preprocess/binning.h"

#include <algorithm>
#include <cmath>

#include "green/common/mathutil.h"

namespace green {

Status QuantileBinner::Fit(const Dataset& train, ExecutionContext* ctx) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n == 0) return Status::InvalidArgument("binner: empty dataset");
  if (num_bins_ < 2) {
    return Status::InvalidArgument("binner: need at least 2 bins");
  }
  ChargeScope scope(ctx, Name());
  input_width_ = d;
  edges_.assign(d, {});

  std::vector<double> column;
  column.reserve(n);
  for (size_t j = 0; j < d; ++j) {
    if (train.feature_type(j) == FeatureType::kCategorical) continue;
    column.clear();
    for (size_t r = 0; r < n; ++r) {
      const double v = train.At(r, j);
      if (!std::isnan(v)) column.push_back(v);
    }
    if (column.size() < 2) continue;  // Degenerate: pass through.
    std::sort(column.begin(), column.end());
    std::vector<double>& edges = edges_[j];
    for (int b = 1; b < num_bins_; ++b) {
      edges.push_back(QuantileSorted(
          column, static_cast<double>(b) / static_cast<double>(num_bins_)));
    }
    // Collapse duplicate edges (heavily tied columns).
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  ctx->ChargeCpu(static_cast<double>(n * d) *
                     std::log2(std::max(2.0, static_cast<double>(n))),
                 train.FeatureBytes());
  fitted_ = true;
  return Status::Ok();
}

Result<Dataset> QuantileBinner::Transform(const Dataset& data,
                                          ExecutionContext* ctx) const {
  if (!fitted_) return Status::FailedPrecondition("binner not fitted");
  if (data.num_features() != input_width_) {
    return Status::InvalidArgument("binner: feature count mismatch");
  }
  ChargeScope scope(ctx, Name());
  Dataset out = data;
  // With no learned edges at all the input passes through as a view.
  const bool any_binned =
      std::any_of(edges_.begin(), edges_.end(),
                  [](const std::vector<double>& e) { return !e.empty(); });
  if (any_binned) {
    const size_t n = out.num_rows();
    double* x = out.MutableData();
    for (size_t j = 0; j < input_width_; ++j) {
      const std::vector<double>& edges = edges_[j];
      if (edges.empty()) continue;
      for (size_t r = 0; r < n; ++r) {
        double& v = x[r * input_width_ + j];
        if (std::isnan(v)) continue;
        v = static_cast<double>(
            std::upper_bound(edges.begin(), edges.end(), v) -
            edges.begin());
      }
    }
  }
  ctx->ChargeCpu(static_cast<double>(out.num_rows() * input_width_) *
                     std::max(1.0, std::log2(static_cast<double>(
                                      num_bins_))),
                 out.FeatureBytes());
  return out;
}

}  // namespace green
