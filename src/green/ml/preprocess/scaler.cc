#include "green/ml/preprocess/scaler.h"

#include <algorithm>
#include <cmath>

namespace green {

Result<TransformCharge> Scaler::Learn(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n == 0) return Status::InvalidArgument("scaler: empty dataset");
  offset_.assign(d, 0.0);
  scale_.assign(d, 1.0);

  for (size_t j = 0; j < d; ++j) {
    if (train.feature_type(j) == FeatureType::kCategorical) continue;
    if (kind_ == ScalerKind::kStandard) {
      double sum = 0.0;
      for (size_t r = 0; r < n; ++r) sum += train.At(r, j);
      const double mean = sum / static_cast<double>(n);
      double var = 0.0;
      for (size_t r = 0; r < n; ++r) {
        const double dlt = train.At(r, j) - mean;
        var += dlt * dlt;
      }
      var /= static_cast<double>(n);
      offset_[j] = mean;
      scale_[j] = var > 1e-12 ? std::sqrt(var) : 1.0;
    } else {
      double lo = train.At(0, j);
      double hi = lo;
      for (size_t r = 1; r < n; ++r) {
        const double v = train.At(r, j);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      offset_[j] = lo;
      scale_[j] = (hi - lo) > 1e-12 ? (hi - lo) : 1.0;
    }
  }
  return TransformCharge{2.0 * static_cast<double>(n * d),
                         train.FeatureBytes()};
}

void Scaler::TransformRow(const double* in, double* out) const {
  for (size_t j = 0; j < offset_.size(); ++j) {
    const double v = in[j];
    out[j] = std::isnan(v) ? v : (v - offset_[j]) / scale_[j];
  }
}

}  // namespace green
