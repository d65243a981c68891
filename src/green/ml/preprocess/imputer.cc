#include "green/ml/preprocess/imputer.h"

#include <cmath>
#include <limits>
#include <map>

namespace green {

Result<TransformCharge> MeanModeImputer::Learn(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n == 0) return Status::InvalidArgument("imputer: empty dataset");
  fill_values_.assign(d, 0.0);

  for (size_t j = 0; j < d; ++j) {
    if (train.feature_type(j) == FeatureType::kCategorical) {
      std::map<int, int> counts;
      for (size_t r = 0; r < n; ++r) {
        const int code =
            CategoryCode(train.At(r, j), std::numeric_limits<int>::max());
        if (code >= 0) ++counts[code];
      }
      int best_code = 0;
      int best_count = -1;
      for (const auto& [code, count] : counts) {
        if (count > best_count) {
          best_count = count;
          best_code = code;
        }
      }
      fill_values_[j] = static_cast<double>(best_code);
    } else {
      double sum = 0.0;
      size_t seen = 0;
      for (size_t r = 0; r < n; ++r) {
        const double v = train.At(r, j);
        if (!std::isnan(v)) {
          sum += v;
          ++seen;
        }
      }
      fill_values_[j] = seen > 0 ? sum / static_cast<double>(seen) : 0.0;
    }
  }
  return TransformCharge{static_cast<double>(n * d),
                         static_cast<double>(n * d) * 8};
}

void MeanModeImputer::TransformRow(const double* in, double* out) const {
  for (size_t j = 0; j < fill_values_.size(); ++j) {
    out[j] = std::isnan(in[j]) ? fill_values_[j] : in[j];
  }
}

}  // namespace green
