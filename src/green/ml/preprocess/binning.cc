#include "green/ml/preprocess/binning.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "green/common/mathutil.h"

namespace green {

Result<TransformCharge> QuantileBinner::Learn(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n == 0) return Status::InvalidArgument("binner: empty dataset");
  if (num_bins_ < 2) {
    return Status::InvalidArgument("binner: need at least 2 bins");
  }
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
      const double edge = QuantileSorted(
          column, static_cast<double>(b) / static_cast<double>(num_bins_));
      // A -inf/+inf pair straddling the quantile interpolates to NaN; the
      // edge takes +inf, so -inf and +inf still land in different bins.
      edges.push_back(std::isnan(edge)
                          ? std::numeric_limits<double>::infinity()
                          : edge);
    }
    // Collapse duplicate edges (heavily tied columns).
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return TransformCharge{static_cast<double>(n * d) *
                             std::log2(std::max(2.0, static_cast<double>(n))),
                         train.FeatureBytes()};
}

void QuantileBinner::TransformRow(const double* in, double* out) const {
  for (size_t j = 0; j < edges_.size(); ++j) {
    const std::vector<double>& edges = edges_[j];
    const double v = in[j];
    out[j] = edges.empty() || std::isnan(v)
                 ? v
                 : static_cast<double>(
                       std::upper_bound(edges.begin(), edges.end(), v) -
                       edges.begin());
  }
}

}  // namespace green
