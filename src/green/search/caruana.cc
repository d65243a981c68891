#include "green/search/caruana.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/ml/metrics.h"

namespace green {

namespace {

double ScoreBlend(const std::vector<std::vector<double>>& blended,
                  const std::vector<int>& val_labels, int num_classes) {
  std::vector<int> preds(blended.size());
  for (size_t i = 0; i < blended.size(); ++i) {
    preds[i] = static_cast<int>(ArgMax(blended[i]));
  }
  return BalancedAccuracy(val_labels, preds, num_classes);
}

/// The greedy loop itself, parameterized over a higher-is-better blend
/// scorer so classification (balanced accuracy) and regression (-RMSE,
/// which is negative — hence the -inf initializers) share one
/// implementation.
CaruanaResult GreedySelect(
    const std::vector<ProbaMatrix>& library_proba, size_t n,
    int num_classes, const CaruanaOptions& options,
    const std::function<double(const ProbaMatrix&)>& score_blend) {
  CaruanaResult result;
  const size_t m = library_proba.size();
  if (m == 0 || n == 0) return result;
  for (const auto& proba : library_proba) {
    GREEN_CHECK(proba.size() == n);
  }

  result.weights.assign(m, 0.0);
  std::vector<int> counts(m, 0);
  int total = 0;

  // Running sum of selected members' probabilities.
  ProbaMatrix sum(n,
                  std::vector<double>(static_cast<size_t>(num_classes),
                                      0.0));
  ProbaMatrix trial = sum;
  double best_score = -std::numeric_limits<double>::infinity();

  for (int round = 0; round < options.max_rounds; ++round) {
    int best_member = -1;
    double best_round_score = -std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < m; ++j) {
      // trial = (sum + library[j]) / (total + 1): evaluate incremental add.
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < trial[i].size(); ++c) {
          trial[i][c] = (sum[i][c] + library_proba[j][i][c]) /
                        static_cast<double>(total + 1);
        }
      }
      const double score = score_blend(trial);
      result.work += static_cast<double>(n) *
                     static_cast<double>(num_classes) * 2.0;
      if (score > best_round_score) {
        best_round_score = score;
        best_member = static_cast<int>(j);
      }
    }
    if (best_member < 0) break;
    if (options.stop_on_plateau && best_round_score <= best_score &&
        round > 0) {
      break;
    }
    best_score = std::max(best_score, best_round_score);
    ++counts[static_cast<size_t>(best_member)];
    ++total;
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < sum[i].size(); ++c) {
        sum[i][c] += library_proba[static_cast<size_t>(best_member)][i][c];
      }
    }
    ++result.rounds_used;
  }

  if (total == 0) {
    // Degenerate: fall back to the single best member.
    result.weights[0] = 1.0;
    result.validation_score = score_blend(library_proba[0]);
    return result;
  }
  for (size_t j = 0; j < m; ++j) {
    result.weights[j] =
        static_cast<double>(counts[j]) / static_cast<double>(total);
  }
  result.validation_score = best_score;
  return result;
}

}  // namespace

CaruanaResult CaruanaEnsembleSelection(
    const std::vector<ProbaMatrix>& library_proba,
    const std::vector<int>& val_labels, int num_classes,
    const CaruanaOptions& options) {
  return GreedySelect(
      library_proba, val_labels.size(), num_classes, options,
      [&](const ProbaMatrix& blended) {
        return ScoreBlend(blended, val_labels, num_classes);
      });
}

CaruanaResult CaruanaEnsembleSelection(
    const std::vector<ProbaMatrix>& library_proba, const Dataset& val_data,
    const CaruanaOptions& options) {
  return GreedySelect(library_proba, val_data.num_rows(),
                      val_data.num_classes(), options,
                      [&](const ProbaMatrix& blended) {
                        return PrimaryScore(val_data, blended);
                      });
}

}  // namespace green
