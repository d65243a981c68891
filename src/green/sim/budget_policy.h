#ifndef GREEN_SIM_BUDGET_POLICY_H_
#define GREEN_SIM_BUDGET_POLICY_H_

namespace green {

/// How a system interprets its search-time budget. The paper's Table 7
/// shows that "search time" is a soft criterion for several systems and
/// attributes the overruns to concrete implementation policies; we model
/// those policies explicitly.
enum class BudgetPolicyKind {
  /// Stops before the deadline; never starts work that would exceed it
  /// (CAML, and CAML(tuned)).
  kStrict,
  /// Starts an evaluation whenever time remains and lets the last one
  /// finish (FLAML's mild overrun).
  kFinishLastEvaluation,
  /// Counts only pipeline search against the budget; post-hoc ensemble
  /// weighting runs after the deadline (AutoSklearn's large overrun,
  /// which grows with validation-set size).
  kEnsemblingNotCounted,
  /// Plans a fixed workload from a runtime estimate; generous estimates
  /// overshoot short budgets (AutoGluon's ~2x overrun at 10s).
  kEstimatedPlan,
  /// No budget at all; runs a fixed tiny workload (TabPFN).
  kNoBudget,
};

/// Whether a new evaluation expected to take `estimated_seconds` may start
/// at time `now` under deadline `deadline` when the budget is read as
/// `kind` says.
bool MayStartEvaluation(BudgetPolicyKind kind, double now, double deadline,
                        double estimated_seconds);

}  // namespace green

#endif  // GREEN_SIM_BUDGET_POLICY_H_
