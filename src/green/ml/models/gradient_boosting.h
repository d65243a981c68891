#ifndef GREEN_ML_MODELS_GRADIENT_BOOSTING_H_
#define GREEN_ML_MODELS_GRADIENT_BOOSTING_H_

#include <vector>

#include "green/ml/estimator.h"
#include "green/ml/kernels/tree_kernels.h"

namespace green {

/// Multiclass gradient boosting with shallow regression trees on the
/// softmax cross-entropy gradient (a compact LightGBM/XGBoost-style
/// learner, the backbone model family of AutoGluon and FLAML).
/// Boosting rounds are inherently sequential, so the charged work carries
/// a low parallel fraction — the opposite profile of bagged forests.
struct GradientBoostingParams {
  int num_rounds = 40;
  int max_depth = 3;
  double learning_rate = 0.15;
  int min_samples_leaf = 4;
  /// Rows subsampled per round (stochastic gradient boosting).
  double subsample = 1.0;
  uint64_t seed = 1;
};

class GradientBoosting : public Estimator {
 public:
  explicit GradientBoosting(const GradientBoostingParams& params)
      : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "gradient_boosting"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override;

  int rounds_fitted() const { return rounds_fitted_; }
  /// Round `round`'s tree for class (or regression target) `c`.
  const FlatTree& tree(size_t round, size_t c) const {
    return trees_[round][c];
  }

 private:
  GradientBoostingParams params_;
  /// trees_[round][class], width-1 trees.
  std::vector<std::vector<FlatTree>> trees_;
  std::vector<double> base_score_;  ///< Log-prior per class.
  int rounds_fitted_ = 0;
  double total_nodes_ = 0.0;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_GRADIENT_BOOSTING_H_
