#ifndef GREEN_ML_PREPROCESS_BINNING_H_
#define GREEN_ML_PREPROCESS_BINNING_H_

#include <cmath>
#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Quantile discretizer: numeric columns are mapped to integer bin codes
/// [0, num_bins) with equal-frequency boundaries learned on the training
/// data (sklearn's KBinsDiscretizer with the quantile strategy).
/// Categorical columns pass through unchanged. Binning is both a
/// robustness device (monotone-invariant, outlier-proof) and an energy
/// device: downstream trees split on tiny cardinalities.
class QuantileBinner : public Transformer {
 public:
  explicit QuantileBinner(int num_bins = 8) : num_bins_(num_bins) {}

  std::string Name() const override { return "quantile_binner"; }
  std::string ConfigSignature() const override {
    return "quantile_binner(" + std::to_string(num_bins_) + ")";
  }
  double TransformFlopsPerRow(size_t num_features) const override {
    return static_cast<double>(num_features) *
           std::max(1.0, std::log2(static_cast<double>(num_bins_)));
  }
  void TransformRow(const double* in, double* out) const override;
  TransformCharge ChargeFor(size_t rows) const override {
    return {static_cast<double>(rows * input_width()) *
                std::max(1.0, std::log2(static_cast<double>(num_bins_))),
            MatrixBytes(rows, input_width())};
  }

  int num_bins() const { return num_bins_; }
  /// Bin edges of column j (empty for pass-through columns).
  const std::vector<double>& edges(size_t j) const { return edges_[j]; }

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  int num_bins_;
  /// Per column: ascending inner edges (size num_bins-1), or empty for
  /// categorical pass-through.
  std::vector<std::vector<double>> edges_;
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_BINNING_H_
