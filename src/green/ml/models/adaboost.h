#ifndef GREEN_ML_MODELS_ADABOOST_H_
#define GREEN_ML_MODELS_ADABOOST_H_

#include <vector>

#include "green/ml/estimator.h"
#include "green/ml/models/decision_tree.h"

namespace green {

/// SAMME multiclass AdaBoost over depth-limited decision stumps/trees —
/// another classic sklearn family in the studied systems' search spaces.
/// Sits between a single tree and gradient boosting in both training and
/// inference cost.
struct AdaBoostParams {
  int num_rounds = 30;
  int max_depth = 2;
  double learning_rate = 1.0;
  uint64_t seed = 1;
};

class AdaBoost : public Estimator {
 public:
  explicit AdaBoost(const AdaBoostParams& params) : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "adaboost"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override;

  int rounds_fitted() const { return static_cast<int>(stages_.size()); }
  const DecisionTree& stage_tree(size_t i) const { return stages_[i].tree; }

 private:
  struct Stage {
    DecisionTree tree;
    double weight = 0.0;

    explicit Stage(const DecisionTreeParams& params) : tree(params) {}
  };

  AdaBoostParams params_;
  std::vector<Stage> stages_;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_ADABOOST_H_
