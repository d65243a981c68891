#include "green/ml/preprocess/feature_selection.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "green/common/stringutil.h"

namespace green {

std::string VarianceThreshold::ConfigSignature() const {
  // %.17g round-trips the double exactly: distinct thresholds can never
  // share a cache key.
  return StrFormat("variance_threshold(%.17g)", threshold_);
}

void ColumnSelector::Keep(const Dataset& train, std::vector<size_t> keep) {
  keep_ = std::move(keep);
  input_schema_ = train.schema();
  output_schema_ = BuildSchema(*input_schema_);
}

std::shared_ptr<Schema> ColumnSelector::BuildSchema(
    const Schema& input) const {
  auto schema = std::make_shared<Schema>(keep_.size());
  for (size_t k = 0; k < keep_.size(); ++k) {
    schema->set_type(k, input.type(keep_[k]));
    schema->set_name(k, input.name(keep_[k]));
  }
  return schema;
}

std::shared_ptr<Schema> ColumnSelector::OutputSchema(
    const Schema& input) const {
  if (&input == input_schema_.get() ||
      (input.SameNames(*input_schema_) && input.SameTypes(*input_schema_))) {
    return output_schema_;
  }
  return BuildSchema(input);
}

void ColumnSelector::TransformRow(const double* in, double* out) const {
  for (size_t k = 0; k < keep_.size(); ++k) out[k] = in[keep_[k]];
}

Result<TransformCharge> VarianceThreshold::Learn(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n == 0) return Status::InvalidArgument("selector: empty dataset");
  std::vector<size_t> keep;
  for (size_t j = 0; j < d; ++j) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) sum += train.At(r, j);
    const double mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double dlt = train.At(r, j) - mean;
      var += dlt * dlt;
    }
    var /= static_cast<double>(n);
    if (var > threshold_) keep.push_back(j);
  }
  if (keep.empty()) keep.push_back(0);  // Never emit a zero-width table.
  Keep(train, std::move(keep));
  return TransformCharge{2.0 * static_cast<double>(n * d),
                         train.FeatureBytes()};
}

Result<TransformCharge> SelectKBest::Learn(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  const int k_classes = train.num_classes();
  if (n == 0) return Status::InvalidArgument("selector: empty dataset");

  std::vector<double> scores(d, 0.0);
  const std::vector<int> counts = train.ClassCounts();
  for (size_t j = 0; j < d; ++j) {
    // Per-class means.
    std::vector<double> class_sum(static_cast<size_t>(k_classes), 0.0);
    double total_sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double v = train.At(r, j);
      class_sum[static_cast<size_t>(train.Label(r))] += v;
      total_sum += v;
    }
    const double grand_mean = total_sum / static_cast<double>(n);
    double between = 0.0;
    for (int c = 0; c < k_classes; ++c) {
      const size_t cc = static_cast<size_t>(c);
      if (counts[cc] == 0) continue;
      const double mu = class_sum[cc] / static_cast<double>(counts[cc]);
      between += static_cast<double>(counts[cc]) * (mu - grand_mean) *
                 (mu - grand_mean);
    }
    double within = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const size_t cc = static_cast<size_t>(train.Label(r));
      const double mu = counts[cc] > 0
                            ? class_sum[cc] / static_cast<double>(counts[cc])
                            : grand_mean;
      const double dlt = train.At(r, j) - mu;
      within += dlt * dlt;
    }
    scores[j] = between / (within + 1e-12);
  }

  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  const size_t take = std::max<size_t>(1, std::min(k_, d));
  std::vector<size_t> keep(order.begin(), order.begin() + take);
  std::sort(keep.begin(), keep.end());

  Keep(train, std::move(keep));
  return TransformCharge{3.0 * static_cast<double>(n * d),
                         train.FeatureBytes()};
}

}  // namespace green
