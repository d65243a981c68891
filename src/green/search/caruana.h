#ifndef GREEN_SEARCH_CARUANA_H_
#define GREEN_SEARCH_CARUANA_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Caruana et al.'s greedy ensemble selection from a library of models —
/// the ensembling step of both AutoSklearn and AutoGluon in the paper
/// (its Observation O1 is about what this does to inference energy).
///
/// Greedily adds (with replacement) the library member whose inclusion
/// maximizes validation balanced accuracy of the probability-averaged
/// ensemble; returns per-member weights that sum to 1.
struct CaruanaOptions {
  int max_rounds = 20;
  /// Stop early when a round fails to improve the score.
  bool stop_on_plateau = true;
};

struct CaruanaResult {
  std::vector<double> weights;  ///< One per library member; sums to 1.
  double validation_score = 0.0;
  int rounds_used = 0;
  /// Abstract work performed (proportional to rounds * library size *
  /// validation predictions); callers charge this to the search stage.
  double work = 0.0;
};

/// `library_proba[m]` holds model m's probabilities on the validation
/// rows whose labels are `val_labels`. Classification-only legacy entry
/// point; greedy selection maximizes balanced accuracy.
CaruanaResult CaruanaEnsembleSelection(
    const std::vector<ProbaMatrix>& library_proba,
    const std::vector<int>& val_labels, int num_classes,
    const CaruanaOptions& options);

/// Task-aware entry point: scores blends with PrimaryScore() against
/// `val_data` (balanced accuracy, or -RMSE for regression, both
/// higher-is-better), so the same greedy loop ensembles any task.
CaruanaResult CaruanaEnsembleSelection(
    const std::vector<ProbaMatrix>& library_proba, const Dataset& val_data,
    const CaruanaOptions& options);

}  // namespace green

#endif  // GREEN_SEARCH_CARUANA_H_
