#include "green/search/median_pruner.h"

#include "green/common/mathutil.h"

namespace green {

bool MedianPruner::ShouldPrune(int step, double value) const {
  auto it = history_.find(step);
  if (it == history_.end() ||
      it->second.size() < static_cast<size_t>(min_trials_)) {
    return false;
  }
  return value < Median(it->second);
}

void MedianPruner::ReportIntermediate(int step, double value) {
  history_[step].push_back(value);
}

}  // namespace green
