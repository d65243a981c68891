#include "green/metaopt/tuned_config_store.h"

#include <cmath>
#include <limits>

namespace green {

void TunedConfigStore::Put(double budget_seconds,
                           const CamlParams& params) {
  entries_[budget_seconds] = params;
}

Result<CamlParams> TunedConfigStore::Get(double budget_seconds) const {
  if (entries_.empty()) return Status::NotFound("store is empty");
  double best_gap = std::numeric_limits<double>::infinity();
  const CamlParams* best = nullptr;
  for (const auto& [budget, params] : entries_) {
    const double gap = std::fabs(std::log(budget_seconds + 1.0) -
                                 std::log(budget + 1.0));
    if (gap < best_gap) {
      best_gap = gap;
      best = &params;
    }
  }
  return *best;
}

TunedConfigStore TunedConfigStore::PaperDefaults() {
  TunedConfigStore store;
  // Table 5's qualitative structure, with values verified against THIS
  // simulation scale (the tuner's output depends on the hardware/scale it
  // runs on — the paper makes the same point): the admitted search space
  // grows with the budget; decision trees appear at every budget ("both
  // simple and complex"); the most expensive family (MLP) only joins at
  // 5 min; up-front sampling, incremental training and random validation
  // splitting are always selected; refit is chosen at intermediate
  // budgets but not at 5 min.
  {
    CamlParams p;  // 10 s
    p.models = {"decision_tree", "extra_trees", "naive_bayes",
                "logistic_regression"};
    p.holdout_fraction = 0.2;
    p.evaluation_fraction = 0.25;
    p.sampling_fraction = 0.9;
    p.refit = false;
    p.random_validation_split = true;
    p.incremental_training = true;
    p.num_initial_random = 4;
    store.Put(10.0, p);
  }
  {
    CamlParams p;  // 30 s
    p.models = {"decision_tree", "extra_trees", "naive_bayes",
                "logistic_regression", "random_forest",
                "gradient_boosting"};
    p.holdout_fraction = 0.2;
    p.evaluation_fraction = 0.2;
    p.sampling_fraction = 0.95;
    p.refit = true;
    p.random_validation_split = true;
    p.incremental_training = true;
    p.num_initial_random = 6;
    store.Put(30.0, p);
  }
  {
    CamlParams p;  // 1 min
    p.models = {"decision_tree", "extra_trees", "naive_bayes",
                "logistic_regression", "random_forest",
                "gradient_boosting"};
    p.holdout_fraction = 0.22;
    p.evaluation_fraction = 0.2;
    p.sampling_fraction = 0.95;
    p.refit = true;
    p.random_validation_split = true;
    p.incremental_training = true;
    p.num_initial_random = 6;
    store.Put(60.0, p);
  }
  {
    CamlParams p;  // 5 min: the widest space (MLP joins only here).
    // kNN stays excluded from every tuned space: its O(n*d) per-row
    // scoring conflicts with the inference-efficiency objective the
    // tuned system is deployed for (Observation O1/O3).
    p.models = {"decision_tree", "extra_trees", "naive_bayes",
                "logistic_regression", "random_forest",
                "gradient_boosting", "mlp"};
    p.holdout_fraction = 0.25;
    p.evaluation_fraction = 0.1;
    p.sampling_fraction = 0.95;
    p.refit = false;
    p.random_validation_split = true;
    p.incremental_training = true;
    store.Put(300.0, p);
  }
  return store;
}

}  // namespace green
