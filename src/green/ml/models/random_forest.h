#ifndef GREEN_ML_MODELS_RANDOM_FOREST_H_
#define GREEN_ML_MODELS_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "green/ml/models/decision_tree.h"

namespace green {

/// Bootstrap-aggregated forest of Gini trees with per-split feature
/// subsampling. Tree construction is embarrassingly parallel, so the
/// charged work carries a high parallel fraction — this is the property
/// that makes forest-heavy systems (AutoGluon) profit from multi-core
/// execution in the paper's Fig. 5.
struct RandomForestParams {
  int num_trees = 32;
  int max_depth = 10;
  int min_samples_leaf = 2;
  double max_features_fraction = 0.0;  ///< 0 = sqrt(d)/d heuristic.
  double bootstrap_fraction = 1.0;
  uint64_t seed = 1;
};

class RandomForest : public Estimator {
 public:
  explicit RandomForest(const RandomForestParams& params)
      : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "random_forest"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override;

  size_t num_trees() const { return trees_.size(); }
  const DecisionTree& tree(size_t t) const { return trees_[t]; }

 private:
  RandomForestParams params_;
  std::vector<DecisionTree> trees_;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_RANDOM_FOREST_H_
