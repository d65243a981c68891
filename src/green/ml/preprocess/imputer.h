#ifndef GREEN_ML_PREPROCESS_IMPUTER_H_
#define GREEN_ML_PREPROCESS_IMPUTER_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Replaces missing values with the column mean (numeric) or the most
/// frequent category (categorical). The first data-preprocessing step of
/// every ASKL/CAML-style pipeline. Categorical cells that name no
/// category (CategoryCode -1: negative, non-finite or past the int range)
/// do not count towards the mode.
class MeanModeImputer : public Transformer {
 public:
  std::string Name() const override { return "imputer"; }
  // Parameter-free; the name is the whole configuration.
  std::string ConfigSignature() const override { return Name(); }
  double TransformFlopsPerRow(size_t num_features) const override {
    return static_cast<double>(num_features);
  }
  void TransformRow(const double* in, double* out) const override;
  TransformCharge ChargeFor(size_t rows) const override {
    return {static_cast<double>(rows * input_width()),
            MatrixBytes(rows, input_width())};
  }

  const std::vector<double>& fill_values() const { return fill_values_; }

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  std::vector<double> fill_values_;
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_IMPUTER_H_
