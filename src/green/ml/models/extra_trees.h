#ifndef GREEN_ML_MODELS_EXTRA_TREES_H_
#define GREEN_ML_MODELS_EXTRA_TREES_H_

#include <vector>

#include "green/ml/models/decision_tree.h"

namespace green {

/// Extremely randomized trees: no bootstrap, random split thresholds.
/// Cheaper to train than a random forest (no per-split exact search) at
/// slightly higher bias — a useful point on the cost/quality spectrum the
/// AutoML systems search over.
struct ExtraTreesParams {
  int num_trees = 32;
  int max_depth = 10;
  int min_samples_leaf = 2;
  double max_features_fraction = 0.0;  ///< 0 = sqrt heuristic.
  uint64_t seed = 1;
};

class ExtraTrees : public Estimator {
 public:
  explicit ExtraTrees(const ExtraTreesParams& params) : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "extra_trees"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override;

  size_t num_trees() const { return trees_.size(); }
  const DecisionTree& tree(size_t t) const { return trees_[t]; }

 private:
  ExtraTreesParams params_;
  std::vector<DecisionTree> trees_;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_EXTRA_TREES_H_
