#ifndef GREEN_AUTOML_RANDOM_SEARCH_SYSTEM_H_
#define GREEN_AUTOML_RANDOM_SEARCH_SYSTEM_H_

#include <string>

#include "green/automl/automl_system.h"

namespace green {

/// The naive baseline the AutoML literature measures itself against
/// (Bergstra & Bengio's random search): uniform sampling of the full
/// pipeline space, hold-out validation, best single pipeline wins. The
/// paper's premise is that the development cost of advanced systems
/// amortizes against exactly this strategy — having it in the harness
/// makes that claim testable (see bench/paper ablation_search_strategies).
struct RandomSearchSystemParams {
  double holdout_fraction = 0.33;
  /// Skip configurations whose estimated evaluation cost exceeds this
  /// fraction of the budget (the same guard CAML uses, so the comparison
  /// isolates the SEARCH strategy).
  double evaluation_fraction = 0.25;
};

class RandomSearchSystem : public AutoMlSystem {
 public:
  RandomSearchSystem() : RandomSearchSystem(RandomSearchSystemParams{}) {}
  explicit RandomSearchSystem(const RandomSearchSystemParams& params)
      : params_(params) {}

  std::string Name() const override { return "random_search"; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kStrict;
  }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  RandomSearchSystemParams params_;
};

}  // namespace green

#endif  // GREEN_AUTOML_RANDOM_SEARCH_SYSTEM_H_
