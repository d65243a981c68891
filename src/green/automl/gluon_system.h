#ifndef GREEN_AUTOML_GLUON_SYSTEM_H_
#define GREEN_AUTOML_GLUON_SYSTEM_H_

#include <string>
#include <vector>

#include "green/automl/automl_system.h"
#include "green/ml/model_registry.h"

namespace green {

/// AutoGluon: no hyperparameter search — a hand-picked portfolio of
/// pipelines is bagged over k folds, a second stacking layer consumes the
/// out-of-fold probabilities of the first, and Caruana weighting blends
/// the final layer (Table 1 row "AutoGluon"). The budget is interpreted
/// as an ESTIMATE used for planning the portfolio; generous plans
/// overshoot short budgets (Table 7's ~2x overrun at 10 s).
struct GluonParams {
  int bagging_folds = 3;
  /// "good quality, faster inference, only refit": collapse each bagged
  /// member into one pipeline refit on all data — cheaper inference at a
  /// small accuracy cost (the paper's Fig. 6 AutoGluon arm).
  bool refit_for_inference = false;
  int caruana_rounds = 12;
};

class GluonSystem : public AutoMlSystem {
 public:
  GluonSystem() : GluonSystem(GluonParams{}) {}
  explicit GluonSystem(const GluonParams& params) : params_(params) {}

  std::string Name() const override {
    return params_.refit_for_inference ? "autogluon_refit" : "autogluon";
  }
  size_t MinTrainRows() const override { return 8; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kEstimatedPlan;
  }

  /// The hand-picked default portfolio, cheap models first.
  static std::vector<PipelineConfig> DefaultPortfolio(uint64_t seed);

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  GluonParams params_;
};

}  // namespace green

#endif  // GREEN_AUTOML_GLUON_SYSTEM_H_
