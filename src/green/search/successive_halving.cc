#include "green/search/successive_halving.h"

#include <algorithm>
#include <cmath>

namespace green {

SuccessiveHalvingResult SuccessiveHalving(
    int num_arms, const SuccessiveHalvingOptions& options,
    const std::function<Result<double>(int arm, int rung,
                                       double budget_fraction)>& evaluate,
    const std::function<bool()>& should_stop) {
  SuccessiveHalvingResult result;
  std::vector<int> alive(static_cast<size_t>(std::max(0, num_arms)));
  for (size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<int>(i);

  double fraction = options.min_fraction;
  for (int rung = 0; rung < options.num_rungs && !alive.empty(); ++rung) {
    const bool last_rung = rung == options.num_rungs - 1;
    if (last_rung) fraction = 1.0;

    std::vector<std::pair<double, int>> scored;
    for (int arm : alive) {
      if (should_stop && should_stop()) {
        // Budget exhausted mid-rung: fall back to what we know.
        break;
      }
      Result<double> score = evaluate(arm, rung, std::min(1.0, fraction));
      ++result.evaluations;
      if (!score.ok()) continue;  // Errors eliminate the arm.
      scored.emplace_back(score.value(), arm);
      if (last_rung && score.value() > result.best_score) {
        result.best_score = score.value();
        result.best_arm = arm;
      }
    }
    std::stable_sort(
        scored.begin(), scored.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });

    if (last_rung || scored.empty()) {
      result.survivors.clear();
      for (const auto& [score, arm] : scored) {
        result.survivors.push_back(arm);
      }
      if (result.best_arm < 0 && !scored.empty()) {
        result.best_score = scored[0].first;
        result.best_arm = scored[0].second;
      }
      break;
    }

    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::floor(
               static_cast<double>(scored.size()) / options.eta)));
    alive.clear();
    for (size_t i = 0; i < keep; ++i) alive.push_back(scored[i].second);
    result.survivors = alive;
    // Provisional best in case the budget runs out before the top rung.
    if (result.best_arm < 0 || scored[0].first > result.best_score) {
      result.best_score = scored[0].first;
      result.best_arm = scored[0].second;
    }
    fraction = std::min(1.0, fraction * options.eta);
  }
  return result;
}

}  // namespace green
