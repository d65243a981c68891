#ifndef GREEN_AUTOML_AUTOPT_SYSTEM_H_
#define GREEN_AUTOML_AUTOPT_SYSTEM_H_

#include <string>

#include "green/automl/automl_system.h"

namespace green {

/// Auto-PyTorch-style neural AutoML: a JOINT search over MLP architecture
/// (hidden width) and training hyperparameters (epochs, learning rate,
/// input scaling), pruned by multi-fidelity successive halving where the
/// fidelity axis is the training-epoch budget. Every arm is a full
/// pipeline config, so the search space is the cross product the
/// Auto-PyTorch papers advocate instead of tuning architecture and
/// hyperparameters in separate phases. Task-agnostic: the underlying MLP
/// fits classification heads and (standardized-target) regression alike,
/// which makes this the reference system for the TaskType plumbing.
struct AutoPtParams {
  double holdout_fraction = 0.33;
  /// Arms sampled for the halving ladder (eta^(rungs-1) keeps one).
  int num_arms = 9;
  int num_rungs = 3;
  double eta = 3.0;
  /// Epoch fraction at the lowest rung of the ladder.
  double min_budget_fraction = 0.111;
  /// Retrain the winning config on train+validation at full fidelity.
  bool refit = true;
};

class AutoPtSystem : public AutoMlSystem {
 public:
  AutoPtSystem() : AutoPtSystem(AutoPtParams{}) {}
  explicit AutoPtSystem(const AutoPtParams& params) : params_(params) {}

  std::string Name() const override { return "autopt"; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kFinishLastEvaluation;
  }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  AutoPtParams params_;
};

}  // namespace green

#endif  // GREEN_AUTOML_AUTOPT_SYSTEM_H_
