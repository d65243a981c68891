#ifndef GREEN_ML_PREPROCESS_SCALER_H_
#define GREEN_ML_PREPROCESS_SCALER_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

enum class ScalerKind { kStandard, kMinMax };

/// Feature scaling for numeric columns; categorical columns pass through
/// untouched. Standard: (x - mean) / std. MinMax: (x - min) / (max - min).
class Scaler : public Transformer {
 public:
  explicit Scaler(ScalerKind kind) : kind_(kind) {}

  std::string Name() const override {
    return kind_ == ScalerKind::kStandard ? "standard_scaler"
                                          : "minmax_scaler";
  }
  // Name() already encodes the only parameter (the kind).
  std::string ConfigSignature() const override { return Name(); }
  double TransformFlopsPerRow(size_t num_features) const override {
    return 2.0 * static_cast<double>(num_features);
  }
  void TransformRow(const double* in, double* out) const override;
  TransformCharge ChargeFor(size_t rows) const override {
    return {2.0 * static_cast<double>(rows * input_width()),
            MatrixBytes(rows, input_width())};
  }

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  ScalerKind kind_;
  /// Categorical columns keep offset 0 and scale 1, which map every
  /// value to itself bit for bit.
  std::vector<double> offset_;
  std::vector<double> scale_;
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_SCALER_H_
