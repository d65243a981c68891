#ifndef GREEN_AUTOML_FLAML_SYSTEM_H_
#define GREEN_AUTOML_FLAML_SYSTEM_H_

#include <string>

#include "green/automl/automl_system.h"

namespace green {

/// FLAML: cost-frugal search for a single low-cost model. Starts with
/// the cheapest learner family on a tiny training sample, locally mutates
/// hyperparameters, and escalates (bigger sample, then costlier family)
/// only when cheap options stop improving (Table 1 row "FLAML"). Budget
/// policy: the evaluation running at the deadline is allowed to finish
/// (Table 7's mild overruns).
struct FlamlParams {
  size_t initial_sample = 64;
  double sample_growth = 4.0;
  /// Consecutive non-improving proposals before escalation.
  int patience = 3;
  double holdout_fraction = 0.33;
  /// Keep this many features at most via univariate pruning when the
  /// dataset is very wide (FLAML's feature-pruning strategy that the
  /// paper credits for its strength on >2k-feature tasks).
  int wide_data_feature_cap = 32;
};

class FlamlSystem : public AutoMlSystem {
 public:
  FlamlSystem() : FlamlSystem(FlamlParams{}) {}
  explicit FlamlSystem(const FlamlParams& params) : params_(params) {}

  std::string Name() const override { return "flaml"; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kFinishLastEvaluation;
  }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  FlamlParams params_;
};

}  // namespace green

#endif  // GREEN_AUTOML_FLAML_SYSTEM_H_
