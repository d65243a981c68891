#ifndef GREEN_ML_PREPROCESS_PCA_H_
#define GREEN_ML_PREPROCESS_PCA_H_

#include <memory>
#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Principal-component projection onto the top `num_components`
/// directions, fitted by power iteration with deflation on the (centered)
/// covariance. One of AutoSklearn's feature preprocessors; dimensionality
/// reduction trades a one-off fitting cost for cheaper inference on wide
/// tables.
class Pca : public Transformer {
 public:
  explicit Pca(size_t num_components, int power_iterations = 30,
               uint64_t seed = 1)
      : num_components_(num_components),
        power_iterations_(power_iterations),
        seed_(seed) {}

  std::string Name() const override { return "pca"; }
  std::string ConfigSignature() const override {
    return "pca(" + std::to_string(num_components_) + "," +
           std::to_string(power_iterations_) + "," +
           std::to_string(seed_) + ")";
  }
  double TransformFlopsPerRow(size_t num_features) const override {
    return 2.0 * static_cast<double>(num_features) *
           static_cast<double>(components_fitted_);
  }
  size_t OutputWidth(size_t input_width) const override {
    return components_fitted_ > 0 ? components_fitted_ : input_width;
  }

  void TransformRow(const double* in, double* out) const override;
  TransformCharge ChargeFor(size_t rows) const override {
    return {2.0 * static_cast<double>(rows * input_width() *
                                      components_fitted_),
            MatrixBytes(rows, components_fitted_),
            /*parallel_fraction=*/0.9};
  }
  /// Unnamed numeric component columns, whatever the input.
  std::shared_ptr<Schema> OutputSchema(const Schema& input) const override {
    return output_schema_;
  }

  /// Fraction of total variance captured by each fitted component.
  const std::vector<double>& explained_variance_ratio() const {
    return explained_variance_ratio_;
  }
  size_t components_fitted() const { return components_fitted_; }
  /// Row-major (components_fitted x input width) unit directions.
  const std::vector<double>& components() const { return components_; }

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  size_t num_components_;
  int power_iterations_;
  uint64_t seed_;
  size_t components_fitted_ = 0;
  std::vector<double> mean_;
  /// Row-major (components x input_width).
  std::vector<double> components_;
  std::vector<double> explained_variance_ratio_;
  std::shared_ptr<Schema> output_schema_;  ///< Never written after Fit.
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_PCA_H_
