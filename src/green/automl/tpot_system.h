#ifndef GREEN_AUTOML_TPOT_SYSTEM_H_
#define GREEN_AUTOML_TPOT_SYSTEM_H_

#include <string>

#include "green/automl/automl_system.h"

namespace green {

/// TPOT: genetic programming (NSGA-II) over pipelines, scored by 5-fold
/// cross-validation. CV multiplies the per-candidate cost by k, which is
/// why the paper finds TPOT evaluates the fewest distinct pipelines per
/// budget and trails at 5 minutes. Only minute-scale budgets are
/// supported (Table 7 has no 10s/30s TPOT column).
struct TpotParams {
  int population_size = 8;
  int cv_folds = 5;
  double mutation_prob = 0.25;
  double crossover_prob = 0.8;
};

class TpotSystem : public AutoMlSystem {
 public:
  TpotSystem() : TpotSystem(TpotParams{}) {}
  explicit TpotSystem(const TpotParams& params) : params_(params) {}

  std::string Name() const override { return "tpot"; }
  double MinBudgetSeconds() const override { return 60.0; }
  /// Every CV fold needs at least two rows.
  size_t MinTrainRows() const override {
    return static_cast<size_t>(2 * params_.cv_folds);
  }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kFinishLastEvaluation;
  }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  TpotParams params_;
};

}  // namespace green

#endif  // GREEN_AUTOML_TPOT_SYSTEM_H_
