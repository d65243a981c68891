#include "green/ml/models/extra_trees.h"

#include <cmath>
#include <numeric>

namespace green {

Status ExtraTrees::Fit(const Dataset& train, ExecutionContext* ctx) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("extra_trees: empty training data");
  }
  ChargeScope scope(ctx, Name());
  trees_.clear();
  Rng rng(params_.seed);
  double flops = 0.0;

  DecisionTreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = params_.min_samples_leaf;
  tree_params.random_thresholds = true;
  tree_params.max_features_fraction =
      params_.max_features_fraction > 0.0
          ? params_.max_features_fraction
          : std::sqrt(static_cast<double>(train.num_features())) /
                static_cast<double>(train.num_features());

  std::vector<size_t> all(train.num_rows());
  std::iota(all.begin(), all.end(), 0);
  for (int t = 0; t < params_.num_trees; ++t) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("extra_trees: interrupted mid-fit");
    }
    Rng tree_rng = rng.Fork();
    tree_params.seed = tree_rng.NextUint64();
    trees_.emplace_back(tree_params);
    GREEN_RETURN_IF_ERROR(
        trees_.back().FitCounted(train, all, &tree_rng, &flops));
  }
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.95);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("extra_trees: interrupted mid-fit");
  }
  MarkFitted(train.num_classes(), train.task());
  return Status::Ok();
}

Result<ProbaMatrix> ExtraTrees::PredictProba(const Dataset& data,
                                             ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("extra_trees not fitted");
  ChargeScope scope(ctx, Name());
  double flops = 0.0;
  ProbaMatrix out = AverageTreeProba(
      trees_, data, static_cast<size_t>(num_classes()), &flops);
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.95);
  return out;
}

double ExtraTrees::InferenceFlopsPerRow(size_t num_features) const {
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) {
    sum += tree.InferenceFlopsPerRow(num_features);
  }
  return sum + static_cast<double>(trees_.size() * num_classes());
}

double ExtraTrees::ComplexityProxy() const {
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.ComplexityProxy();
  return sum;
}

}  // namespace green
