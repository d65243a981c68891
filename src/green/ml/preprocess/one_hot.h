#ifndef GREEN_ML_PREPROCESS_ONE_HOT_H_
#define GREEN_ML_PREPROCESS_ONE_HOT_H_

#include <memory>
#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Expands categorical columns into indicator columns; numeric columns are
/// copied through. A code that names no category seen at fit time (see
/// CategoryCode: unseen, negative, non-finite or missing) maps to
/// all-zeros. Columns whose cardinality exceeds `max_cardinality` (any fit
/// code at or past the cap, infinity included) are passed through as
/// numeric codes instead (the standard high-cardinality guard).
///
/// The output schema (indicator columns named `<name>=<code>`) is built
/// once, in Fit, and only read afterwards. OutputSchema shares it whenever
/// the input names equal the fitted input's names and builds a fresh one
/// otherwise, so output names always follow the transform-time input.
class OneHotEncoder : public Transformer {
 public:
  explicit OneHotEncoder(int max_cardinality = 32)
      : max_cardinality_(max_cardinality) {}

  std::string Name() const override { return "one_hot"; }
  std::string ConfigSignature() const override {
    return "one_hot(" + std::to_string(max_cardinality_) + ")";
  }
  double TransformFlopsPerRow(size_t num_features) const override {
    return static_cast<double>(output_width_ > 0
                                   ? output_width_
                                   : num_features);
  }

  size_t OutputWidth(size_t input_width) const override {
    return output_width_ > 0 ? output_width_ : input_width;
  }

  size_t output_width() const { return output_width_; }

  void TransformRow(const double* in, double* out) const override;
  TransformCharge ChargeFor(size_t rows) const override {
    return {static_cast<double>(rows * output_width_),
            MatrixBytes(rows, output_width_)};
  }
  std::shared_ptr<Schema> OutputSchema(const Schema& input) const override;

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  /// A fresh output schema for an input whose columns are named like
  /// `input`.
  std::shared_ptr<Schema> BuildSchema(const Schema& input) const;

  int max_cardinality_;
  std::vector<int> cardinality_;  ///< 0 = pass-through column.
  size_t output_width_ = 0;
  std::shared_ptr<const Schema> input_schema_;  ///< Fitted input's columns.
  std::shared_ptr<Schema> output_schema_;  ///< Never written after Fit.
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_ONE_HOT_H_
