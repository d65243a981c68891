#ifndef GREEN_ML_MODELS_DECISION_TREE_H_
#define GREEN_ML_MODELS_DECISION_TREE_H_

#include <vector>

#include "green/common/rng.h"
#include "green/ml/estimator.h"
#include "green/ml/kernels/tree_kernels.h"

namespace green {

/// CART-style tree: Gini impurity for classification, variance reduction
/// with target-mean leaves for regression (the task is taken from the
/// training dataset; regression leaves store a single-element proba row
/// holding the leaf mean). The split knobs live in TreeKernelParams.
struct DecisionTreeParams : TreeKernelParams {
  uint64_t seed = 1;
};

class DecisionTree : public Estimator {
 public:
  explicit DecisionTree(const DecisionTreeParams& params)
      : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "decision_tree"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override {
    return static_cast<double>(tree_.num_nodes());
  }

  /// Ensemble-internal entry points: train/score on behalf of a parent
  /// that does its own (parallel) work accounting. `flops` accumulates
  /// the abstract work performed. `presort` is the TablePresort of
  /// `train`, shared by every tree of the parent's fit; it may be null
  /// only with `random_thresholds` (InvalidArgument otherwise, or when
  /// its shape differs from `train`).
  Status FitCounted(const Dataset& train, const TablePresort* presort,
                    const std::vector<size_t>& row_indices, Rng* rng,
                    double* flops);
  void PredictProbaCounted(const Dataset& data, ProbaMatrix* out,
                           double* flops) const;
  /// Adds each row's leaf distribution into a flat rows x k accumulator
  /// (acc[r * k + c]) without materializing a per-tree ProbaMatrix.
  /// Charges the same flops as PredictProbaCounted.
  void AccumulateProbaCounted(const Dataset& data, double* acc, size_t k,
                              double* flops) const;

  size_t num_nodes() const { return tree_.num_nodes(); }
  double mean_leaf_depth() const { return mean_leaf_depth_; }

 private:
  DecisionTreeParams params_;
  FlatTree tree_;
  double mean_leaf_depth_ = 0.0;
};

/// Bagged-ensemble predict shared by RandomForest and ExtraTrees: the
/// mean of the trees' leaf distributions (k wide), streamed through one
/// flat rows x k accumulator. Charges each tree's walk plus rows * k adds
/// per tree.
ProbaMatrix AverageTreeProba(const std::vector<DecisionTree>& trees,
                             const Dataset& data, size_t k, double* flops);

}  // namespace green

#endif  // GREEN_ML_MODELS_DECISION_TREE_H_
