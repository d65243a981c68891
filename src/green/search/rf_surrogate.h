#ifndef GREEN_SEARCH_RF_SURROGATE_H_
#define GREEN_SEARCH_RF_SURROGATE_H_

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
  /// overhead, not model training).
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

  bool fitted() const { return !trees_.empty(); }

 private:
  int BuildNode(const std::vector<std::vector<double>>& x,
                const std::vector<double>& y, std::vector<size_t>* rows,
                int depth, FlatTree* tree, Rng* rng, double* work);

  Options options_;
  std::vector<FlatTree> trees_;
};

}  // namespace green

#endif  // GREEN_SEARCH_RF_SURROGATE_H_
