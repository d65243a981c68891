#ifndef GREEN_SEARCH_MEDIAN_PRUNER_H_
#define GREEN_SEARCH_MEDIAN_PRUNER_H_

#include <cstddef>
#include <map>
#include <vector>

namespace green {

/// Optuna-style median pruning: a trial reporting an intermediate value
/// below the median of completed trials' values at the same step is
/// stopped early. The paper's development-stage tuner (§2.5) uses this to
/// kill poor AutoML-parameter settings after only a few datasets.
class MedianPruner {
 public:
  /// Trials report intermediate values (higher = better) at integer steps.
  /// Returns true if the trial should be pruned at this step.
  bool ShouldPrune(int step, double value) const;

  /// Records an intermediate value of a still-running trial.
  void ReportIntermediate(int step, double value);

  /// Minimum completed trials at a step before pruning activates.
  void set_min_trials(int min_trials) { min_trials_ = min_trials; }

 private:
  std::map<int, std::vector<double>> history_;
  int min_trials_ = 3;
};

}  // namespace green

#endif  // GREEN_SEARCH_MEDIAN_PRUNER_H_
