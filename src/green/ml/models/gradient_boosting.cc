#include "green/ml/models/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "green/common/arena.h"
#include "green/common/mathutil.h"
#include "green/common/rng.h"

namespace green {

Status GradientBoosting::Fit(const Dataset& train, ExecutionContext* ctx) {
  const size_t n = train.num_rows();
  const int k = train.num_classes();
  if (n == 0) return Status::InvalidArgument("gboost: empty training data");
  // Every round samples at most n rows.
  GREEN_RETURN_IF_ERROR(CheckTreeIndexRange(n, n));

  ChargeScope scope(ctx, Name());
  trees_.clear();
  rounds_fitted_ = 0;
  total_nodes_ = 0.0;
  double flops = 0.0;
  Rng rng(params_.seed);

  const bool regression = train.task() == TaskType::kRegression;
  if (regression) {
    // Regression base score: the target mean (squared-loss optimum).
    base_score_.assign(1, train.TargetMean());
  } else {
    // Class log-priors as the base score.
    base_score_.assign(static_cast<size_t>(k), 0.0);
    const std::vector<int> counts = train.ClassCounts();
    for (int c = 0; c < k; ++c) {
      const double p = std::max(
          1e-6, static_cast<double>(counts[static_cast<size_t>(c)]) /
                    static_cast<double>(n));
      base_score_[static_cast<size_t>(c)] = std::log(p);
    }
  }

  // Raw scores per row per class.
  std::vector<std::vector<double>> score(
      n, std::vector<double>(base_score_.begin(), base_score_.end()));
  std::vector<double> target(n);
  std::vector<double> proba;
  // Every round's trees derive their stripes from one presort.
  const TablePresort presort(train);
  TreeKernelParams kp;
  kp.max_depth = params_.max_depth;
  kp.min_samples_leaf = params_.min_samples_leaf;

  for (int round = 0; round < params_.num_rounds; ++round) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("gboost: interrupted mid-fit");
    }
    std::vector<size_t> rows;
    if (params_.subsample < 1.0) {
      for (size_t r = 0; r < n; ++r) {
        if (rng.NextBool(params_.subsample)) rows.push_back(r);
      }
      if (rows.size() < 4) {
        rows.resize(std::min<size_t>(n, 4));
        std::iota(rows.begin(), rows.end(), 0);
      }
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
    }

    std::vector<FlatTree> round_trees;
    round_trees.reserve(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) {
      if (regression) {
        // Negative gradient of squared loss: the residual y - score.
        for (size_t r = 0; r < n; ++r) {
          target[r] = train.Target(r) - score[r][0];
        }
      } else {
        // Negative gradient of softmax cross-entropy: 1{y=c} - p_c.
        for (size_t r = 0; r < n; ++r) {
          proba = score[r];
          SoftmaxInPlace(&proba);
          target[r] = (train.Label(r) == c ? 1.0 : 0.0) -
                      proba[static_cast<size_t>(c)];
        }
      }
      flops += static_cast<double>(n) * static_cast<double>(k);
      FlatTree tree;
      BuildGbTree(presort, rows, target, kp, &flops, ScratchArena(), &tree);
      for (size_t r = 0; r < n; ++r) {
        score[r][static_cast<size_t>(c)] +=
            params_.learning_rate * tree.Walk(train.RowPtr(r), &flops)[0];
      }
      total_nodes_ += static_cast<double>(tree.num_nodes());
      round_trees.push_back(std::move(tree));
    }
    trees_.push_back(std::move(round_trees));
    ++rounds_fitted_;
  }
  // Boosting is sequential across rounds; per-round tree fits parallelize
  // only over classes.
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.4);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("gboost: interrupted mid-fit");
  }
  MarkFitted(k, train.task());
  return Status::Ok();
}

Result<ProbaMatrix> GradientBoosting::PredictProba(
    const Dataset& data, ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("gboost not fitted");
  ChargeScope scope(ctx, Name());
  const int k = num_classes();
  ProbaMatrix out(data.num_rows());
  double flops = 0.0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const double* row = data.RowPtr(r);
    std::vector<double> score(base_score_.begin(), base_score_.end());
    for (const auto& round_trees : trees_) {
      for (int c = 0; c < k; ++c) {
        score[static_cast<size_t>(c)] +=
            params_.learning_rate *
            round_trees[static_cast<size_t>(c)].Walk(row, &flops)[0];
      }
    }
    if (task() != TaskType::kRegression) SoftmaxInPlace(&score);
    flops += static_cast<double>(k);
    out[r] = std::move(score);
  }
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.9);
  return out;
}

double GradientBoosting::InferenceFlopsPerRow(size_t num_features) const {
  return 2.0 * static_cast<double>(rounds_fitted_) *
             static_cast<double>(num_classes()) *
             static_cast<double>(params_.max_depth) +
         static_cast<double>(num_classes());
}

double GradientBoosting::ComplexityProxy() const { return total_nodes_; }

}  // namespace green
