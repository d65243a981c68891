#ifndef GREEN_ML_PREPROCESS_FEATURE_SELECTION_H_
#define GREEN_ML_PREPROCESS_FEATURE_SELECTION_H_

#include <memory>
#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Base of the column filters: keeps a subset of the input columns, fixed
/// in Fit, in input order and with their names and types. The output
/// schema is built once in Fit and shared with every input named and typed
/// like the fitted one.
class ColumnSelector : public Transformer {
 public:
  double TransformFlopsPerRow(size_t num_features) const override {
    return static_cast<double>(keep_.size());
  }

  size_t OutputWidth(size_t input_width) const override {
    return keep_.empty() ? input_width : keep_.size();
  }

  const std::vector<size_t>& kept_columns() const { return keep_; }

  void TransformRow(const double* in, double* out) const override;
  TransformCharge ChargeFor(size_t rows) const override {
    return {static_cast<double>(rows * keep_.size()),
            MatrixBytes(rows, keep_.size())};
  }
  std::shared_ptr<Schema> OutputSchema(const Schema& input) const override;

 protected:
  /// Fixes the kept columns of `train` (ascending).
  void Keep(const Dataset& train, std::vector<size_t> keep);

 private:
  std::shared_ptr<Schema> BuildSchema(const Schema& input) const;

  std::vector<size_t> keep_;
  std::shared_ptr<const Schema> input_schema_;  ///< Fitted input's columns.
  std::shared_ptr<Schema> output_schema_;  ///< Never written after Fit.
};

/// Drops features whose variance is at or below `threshold`.
class VarianceThreshold : public ColumnSelector {
 public:
  explicit VarianceThreshold(double threshold = 0.0)
      : threshold_(threshold) {}

  std::string Name() const override { return "variance_threshold"; }
  std::string ConfigSignature() const override;

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  double threshold_;
};

/// Keeps the k features with the highest ANOVA-style F score
/// (between-class variance over within-class variance) — the classic
/// univariate filter FLAML's feature pruning resembles.
class SelectKBest : public ColumnSelector {
 public:
  explicit SelectKBest(size_t k) : k_(k) {}

  std::string Name() const override { return "select_k_best"; }
  std::string ConfigSignature() const override {
    return "select_k_best(" + std::to_string(k_) + ")";
  }

 protected:
  Result<TransformCharge> Learn(const Dataset& train) override;

 private:
  size_t k_;
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_FEATURE_SELECTION_H_
