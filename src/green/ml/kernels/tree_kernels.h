#ifndef GREEN_ML_KERNELS_TREE_KERNELS_H_
#define GREEN_ML_KERNELS_TREE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "green/common/arena.h"
#include "green/common/rng.h"
#include "green/common/status.h"
#include "green/table/dataset.h"

namespace green {

/// Split-search parameters shared by the tree learners.
///
/// The paper's tuned CAML repeatedly selects decision trees because "they
/// can be both simple (shallow and narrow) and complex (deep and wide)" —
/// the depth/leaf knobs below span exactly that range.
struct TreeKernelParams {
  int max_depth = 8;
  int min_samples_leaf = 2;
  /// Features examined per split: 0 = all, otherwise ceil(fraction * d).
  double max_features_fraction = 0.0;
  /// If true, thresholds are drawn uniformly at random between the
  /// feature's node-local min/max instead of exhaustively searched —
  /// the Extra-Trees randomization.
  bool random_thresholds = false;
};

/// One fitted tree in flat structure-of-arrays form, shared by every tree
/// learner (DT/RF/ET/AdaBoost stages, gradient-boosting rounds and the BO
/// surrogate). Nodes are numbered in preorder with the root at 0; node i
/// is a leaf iff feature[i] < 0. Every node owns a `width`-wide stripe of
/// leaf values (a class distribution for classification, {value} for
/// regression and boosting), zero for internal nodes.
class FlatTree {
 public:
  explicit FlatTree(size_t width = 1) : width_(width) {}

  size_t width() const { return width_; }
  size_t num_nodes() const { return feature_.size(); }
  bool is_leaf(int node) const { return feature_[Index(node)] < 0; }
  int left(int node) const { return left_[Index(node)]; }
  int right(int node) const { return right_[Index(node)]; }

  /// Appends a leaf with zeroed values, returning its index.
  int AddNode();
  /// The node's leaf-value stripe (`width()` doubles).
  double* leaf(int node) { return leaf_.data() + Index(node) * width_; }
  void SetSplit(int node, int feature, double threshold, int left,
                int right);

  /// Routes one row (`row[f]` is feature f) to its leaf and returns that
  /// leaf's value stripe. Charges 2 flops per internal node visited.
  const double* Walk(const double* row, double* flops) const {
    size_t idx = 0;
    while (feature_[idx] >= 0) {
      *flops += 2.0;
      idx = static_cast<size_t>(
          row[feature_[idx]] <= threshold_[idx] ? left_[idx] : right_[idx]);
    }
    return leaf_.data() + idx * width_;
  }

 private:
  static size_t Index(int node) { return static_cast<size_t>(node); }

  size_t width_;
  std::vector<int> feature_;  ///< -1 marks a leaf.
  std::vector<double> threshold_;
  std::vector<int> left_;
  std::vector<int> right_;
  std::vector<double> leaf_;  ///< num_nodes x width leaf values.
};

/// The builders store slot and row ids as uint32_t. Rejects (with
/// ResourceExhausted) a training table or a row sample — which may repeat
/// rows, and so outgrow the table — longer than that type can index.
Status CheckTreeIndexRange(size_t num_rows, size_t sample_size);

/// One training table's per-feature order, built once per fit and shared
/// by every exact-search tree of that fit (all trees of a forest, every
/// AdaBoost stage, every boosting round): for each feature, the row ids
/// sorted by (value, row id) and the values in that order. A tree derives
/// its sample's sorted stripes from it by a counting pass, without
/// comparisons. Building it charges no work. Callers check
/// CheckTreeIndexRange first.
class TablePresort {
 public:
  explicit TablePresort(const Dataset& train);

  size_t num_rows() const { return n_; }
  size_t num_features() const { return d_; }
  /// Feature f's row ids in (value, row id) order.
  const uint32_t* order(size_t f) const { return order_.data() + f * n_; }
  /// Feature f's values in that order.
  const double* values(size_t f) const { return values_.data() + f * n_; }

 private:
  size_t n_;
  size_t d_;
  std::vector<uint32_t> order_;  ///< d x n
  std::vector<double> values_;   ///< d x n
};

/// Builds a classification tree over `rows` (duplicates allowed —
/// bootstrap samples), replacing `tree` (width = num_classes). The exact
/// path derives each feature's sorted stripe from `presort` (the presort
/// of `train`; null only with `random_thresholds`) and stable-partitions
/// the stripes down the recursion; the random-threshold path gathers each
/// node's column once and scans contiguous arrays. Scratch lives on
/// `arena` inside a scope. Callers check CheckTreeIndexRange first.
void BuildClsTree(const Dataset& train, const TablePresort* presort,
                  const std::vector<size_t>& rows,
                  const TreeKernelParams& params, int num_classes, Rng* rng,
                  double* flops, Arena* arena, FlatTree* tree);

/// Regression analogue of BuildClsTree (SSE criterion, {mean} leaves,
/// width 1).
void BuildRegTree(const Dataset& train, const TablePresort* presort,
                  const std::vector<size_t>& rows,
                  const TreeKernelParams& params, Rng* rng, double* flops,
                  Arena* arena, FlatTree* tree);

/// Builds one gradient-boosting regression tree over `rows` of the
/// presorted table (variance-reduction gain over all features, {mean}
/// leaves), replacing `tree`. `targets` is indexed by original row id.
void BuildGbTree(const TablePresort& presort,
                 const std::vector<size_t>& rows,
                 const std::vector<double>& targets,
                 const TreeKernelParams& params, double* flops, Arena* arena,
                 FlatTree* tree);

}  // namespace green

#endif  // GREEN_ML_KERNELS_TREE_KERNELS_H_
