#ifndef GREEN_AUTOML_TABPFN_SYSTEM_H_
#define GREEN_AUTOML_TABPFN_SYSTEM_H_

#include <string>

#include "green/automl/automl_system.h"
#include "green/ml/models/attention_few_shot.h"

namespace green {

/// TabPFN: zero-search few-shot AutoML. Execution is a fixed, tiny cost
/// (weight loading + context memorization); ALL interesting energy is
/// spent at inference, where the training context is forward-passed per
/// prediction. Has no search-time parameter at all — the single dot in
/// the paper's Fig. 3.
class TabPfnSystem : public AutoMlSystem {
 public:
  TabPfnSystem() = default;
  explicit TabPfnSystem(const AttentionFewShotParams& model_params)
      : model_params_(model_params) {}

  std::string Name() const override { return "tabpfn"; }
  size_t MinTrainRows() const override { return 1; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kNoBudget;
  }
  /// Classification only: the pretrained prior has no regression head.
  bool SupportsTask(TaskType task) const override {
    return IsClassification(task);
  }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  AttentionFewShotParams model_params_;
};

}  // namespace green

#endif  // GREEN_AUTOML_TABPFN_SYSTEM_H_
