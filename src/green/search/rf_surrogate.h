#ifndef GREEN_SEARCH_RF_SURROGATE_H_
#define GREEN_SEARCH_RF_SURROGATE_H_

#include <cstdint>
#include <vector>

#include "green/common/rng.h"
#include "green/ml/kernels/tree_kernels.h"

namespace green {

/// Random-forest regression surrogate over the unit hypercube — the model
/// class SMAC-style Bayesian optimization (used by ASKL and CAML in the
/// paper) fits to past (configuration, score) observations. Trees use
/// random thresholds for speed; predictive uncertainty is the variance of
/// per-tree predictions. Trees are stored as width-1 FlatTrees; the split
/// rule is the surrogate's own (see DESIGN.md).
///
/// A fit builds every tree from one column-major copy of the observations
/// and partitions each node's rows in place, so refits inside a search
/// loop reuse the same buffers and tree capacity.
class RfSurrogate {
 public:
  struct Options {
    int num_trees = 24;
    int max_depth = 6;
    int min_samples_leaf = 3;
    uint64_t seed = 1;
  };

  explicit RfSurrogate(const Options& options) : options_(options) {}

  /// Fits on observations; returns abstract work performed (charged by
  /// the caller to the search stage — surrogate fitting is AutoML
  /// overhead, not model training). Empty input, a size mismatch with
  /// `y`, rows of differing width and zero-width rows leave the surrogate
  /// unfitted and return 0.
  double Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y);

  /// Mean and standard deviation of the prediction at `x`.
  struct Prediction {
    double mean = 0.0;
    double stddev = 0.0;
  };
  Prediction Predict(const std::vector<double>& x) const;

  /// Expected improvement over `best_so_far` (maximization).
  double ExpectedImprovement(const std::vector<double>& x,
                             double best_so_far) const;

  /// Expected improvement of `count` points stored row-major in `points`
  /// (`dim` coordinates each) into `out[0, count)`. Each point sums its
  /// trees in tree order, so `out[i]` equals ExpectedImprovement of point
  /// i bit for bit. Once fitted, `dim` must equal the fitted width.
  void ExpectedImprovementBatch(const double* points, size_t count,
                                size_t dim, double best_so_far,
                                double* out) const;

  bool fitted() const { return d_ > 0 && !trees_.empty(); }

 private:
  Prediction PredictPoint(const double* x, size_t dim) const;
  int BuildNode(size_t lo, size_t hi, int depth, FlatTree* tree, Rng* rng,
                double* work);

  Options options_;
  /// Fitted trees. A refit clears and reuses them, keeping capacity.
  std::vector<FlatTree> trees_;
  size_t n_ = 0;  ///< Observations in the last fit.
  size_t d_ = 0;  ///< Fitted width; 0 while unfitted.
  // Fit scratch, reused across refits.
  std::vector<double> cols_;          ///< d x n observation columns.
  std::vector<uint32_t> rows_;        ///< Bootstrap row ids, node order.
  std::vector<double> node_y_;        ///< Their targets, node order.
  std::vector<uint32_t> right_rows_;  ///< Partition staging.
  std::vector<double> right_y_;
  std::vector<double> column_;        ///< One probe's gathered column.
};

}  // namespace green

#endif  // GREEN_SEARCH_RF_SURROGATE_H_
