#include "green/ml/models/decision_tree.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "green/common/arena.h"
#include "green/common/stringutil.h"

namespace green {

Status DecisionTree::Fit(const Dataset& train, ExecutionContext* ctx) {
  ChargeScope scope(ctx, Name());
  GREEN_RETURN_IF_ERROR(
      CheckTreeIndexRange(train.num_rows(), train.num_rows()));
  std::optional<TablePresort> presort;
  if (!params_.random_thresholds) {
    GREEN_ASSIGN_OR_RETURN(presort, TablePresort::Build(train));
  }
  std::vector<size_t> all(train.num_rows());
  std::iota(all.begin(), all.end(), 0);
  Rng rng(params_.seed);
  double flops = 0.0;
  GREEN_RETURN_IF_ERROR(FitCounted(
      train, presort ? &*presort : nullptr, all, &rng, &flops));
  // Single-tree induction is mostly sequential (node-by-node greedy).
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.3);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("decision_tree: interrupted mid-fit");
  }
  return Status::Ok();
}

Status DecisionTree::FitCounted(const Dataset& train,
                                const TablePresort* presort,
                                const std::vector<size_t>& row_indices,
                                Rng* rng, double* flops) {
  if (train.num_rows() == 0 || row_indices.empty()) {
    return Status::InvalidArgument("decision_tree: empty training data");
  }
  GREEN_RETURN_IF_ERROR(
      CheckTreeIndexRange(train.num_rows(), row_indices.size()));
  if (!params_.random_thresholds) {
    if (presort == nullptr) {
      return Status::InvalidArgument(
          "decision_tree: exact split search needs a table presort");
    }
    if (presort->num_rows() != train.num_rows() ||
        presort->num_features() != train.num_features()) {
      return Status::InvalidArgument(StrFormat(
          "decision_tree: presort is %zu x %zu, training table %zu x %zu",
          presort->num_rows(), presort->num_features(), train.num_rows(),
          train.num_features()));
    }
  }
  if (train.task() == TaskType::kRegression) {
    BuildRegTree(train, presort, row_indices, params_, rng, flops,
                 ScratchArena(), &tree_);
  } else {
    BuildClsTree(train, presort, row_indices, params_, train.num_classes(),
                 rng, flops, ScratchArena(), &tree_);
  }

  // Mean leaf depth drives the per-row inference cost estimate.
  double total_depth = 0.0;
  size_t leaves = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};  // (node, depth)
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    if (tree_.is_leaf(idx)) {
      total_depth += depth;
      ++leaves;
    } else {
      stack.push_back({tree_.left(idx), depth + 1});
      stack.push_back({tree_.right(idx), depth + 1});
    }
  }
  mean_leaf_depth_ = leaves > 0 ? total_depth / static_cast<double>(leaves)
                                : 0.0;
  MarkFitted(train.num_classes(), train.task());
  return Status::Ok();
}

void DecisionTree::PredictProbaCounted(const Dataset& data,
                                       ProbaMatrix* out,
                                       double* flops) const {
  out->resize(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const double* leaf = tree_.Walk(data.RowPtr(r), flops);
    (*out)[r].assign(leaf, leaf + tree_.width());
  }
}

void DecisionTree::AccumulateProbaCounted(const Dataset& data, double* acc,
                                          size_t k, double* flops) const {
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const double* leaf = tree_.Walk(data.RowPtr(r), flops);
    double* row = acc + r * k;
    for (size_t c = 0; c < tree_.width(); ++c) row[c] += leaf[c];
  }
}

Result<ProbaMatrix> DecisionTree::PredictProba(const Dataset& data,
                                               ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("tree not fitted");
  ChargeScope scope(ctx, Name());
  ProbaMatrix out;
  double flops = 0.0;
  PredictProbaCounted(data, &out, &flops);
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.9);
  return out;
}

double DecisionTree::InferenceFlopsPerRow(size_t num_features) const {
  return 2.0 * std::max(1.0, mean_leaf_depth_);
}

ProbaMatrix AverageTreeProba(const std::vector<DecisionTree>& trees,
                             const Dataset& data, size_t k, double* flops) {
  const size_t rows = data.num_rows();
  std::vector<double> acc(rows * k, 0.0);
  for (const DecisionTree& tree : trees) {
    tree.AccumulateProbaCounted(data, acc.data(), k, flops);
    *flops += static_cast<double>(rows) * static_cast<double>(k);
  }
  const double inv =
      trees.empty() ? 1.0 : 1.0 / static_cast<double>(trees.size());
  ProbaMatrix out(rows, std::vector<double>(k));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < k; ++c) out[r][c] = acc[r * k + c] * inv;
  }
  return out;
}

}  // namespace green
