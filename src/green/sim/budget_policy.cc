#include "green/sim/budget_policy.h"

namespace green {

bool MayStartEvaluation(BudgetPolicyKind kind, double now, double deadline,
                        double estimated_seconds) {
  switch (kind) {
    case BudgetPolicyKind::kStrict:
      return now + estimated_seconds <= deadline;
    case BudgetPolicyKind::kFinishLastEvaluation:
    case BudgetPolicyKind::kEnsemblingNotCounted:
      return now < deadline;
    case BudgetPolicyKind::kEstimatedPlan:
      // Planning happened up front; individual evaluations always run.
      return true;
    case BudgetPolicyKind::kNoBudget:
      return true;
  }
  return false;
}

}  // namespace green
