#include "green/ml/models/random_forest.h"

#include <cmath>

namespace green {

Status RandomForest::Fit(const Dataset& train, ExecutionContext* ctx) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("random_forest: empty training data");
  }
  ChargeScope scope(ctx, Name());
  trees_.clear();
  Rng rng(params_.seed);
  double flops = 0.0;

  DecisionTreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = params_.min_samples_leaf;
  tree_params.max_features_fraction =
      params_.max_features_fraction > 0.0
          ? params_.max_features_fraction
          : std::sqrt(static_cast<double>(train.num_features())) /
                static_cast<double>(train.num_features());

  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(params_.bootstrap_fraction *
                             static_cast<double>(train.num_rows())));
  // One presort of the table serves every tree's bootstrap sample.
  GREEN_RETURN_IF_ERROR(CheckTreeIndexRange(train.num_rows(), sample_size));
  GREEN_ASSIGN_OR_RETURN(const TablePresort presort,
                         TablePresort::Build(train));
  for (int t = 0; t < params_.num_trees; ++t) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("random_forest: interrupted mid-fit");
    }
    Rng tree_rng = rng.Fork();
    std::vector<size_t> sample(sample_size);
    for (size_t& s : sample) {
      s = static_cast<size_t>(tree_rng.NextBounded(train.num_rows()));
    }
    tree_params.seed = tree_rng.NextUint64();
    trees_.emplace_back(tree_params);
    GREEN_RETURN_IF_ERROR(
        trees_.back().FitCounted(train, &presort, sample, &tree_rng, &flops));
  }
  // Independent trees: embarrassingly parallel training.
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.95);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("random_forest: interrupted mid-fit");
  }
  MarkFitted(train.num_classes(), train.task());
  return Status::Ok();
}

Result<ProbaMatrix> RandomForest::PredictProba(const Dataset& data,
                                               ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("forest not fitted");
  ChargeScope scope(ctx, Name());
  double flops = 0.0;
  ProbaMatrix out = AverageTreeProba(
      trees_, data, static_cast<size_t>(num_classes()), &flops);
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.95);
  return out;
}

double RandomForest::InferenceFlopsPerRow(size_t num_features) const {
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) {
    sum += tree.InferenceFlopsPerRow(num_features);
  }
  return sum + static_cast<double>(trees_.size() * num_classes());
}

double RandomForest::ComplexityProxy() const {
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.ComplexityProxy();
  return sum;
}

}  // namespace green
