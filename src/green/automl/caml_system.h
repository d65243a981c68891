#ifndef GREEN_AUTOML_CAML_SYSTEM_H_
#define GREEN_AUTOML_CAML_SYSTEM_H_

#include <string>
#include <vector>

#include "green/automl/automl_system.h"
#include "green/automl/search_model_space.h"

namespace green {

/// The tunable "AutoML system parameters" of CAML — exactly the knobs the
/// paper's development-stage optimizer searches (§3.7 lists them: search
/// space design, hold-out fraction, evaluation fraction, sampling, refit,
/// random validation splitting, incremental training).
struct CamlParams {
  /// Model families admitted to the search space (search-space design).
  std::vector<std::string> models = {
      "decision_tree", "random_forest",       "extra_trees",
      "gradient_boosting", "logistic_regression", "knn",
      "naive_bayes",    "mlp"};
  /// Hold-out validation fraction.
  double holdout_fraction = 0.33;
  /// Maximum fraction of the total budget one evaluation may take before
  /// it is preemptively skipped ("evaluation fraction").
  double evaluation_fraction = 0.1;
  /// If < 1, the AutoML run trains on a row subsample of this fraction.
  double sampling_fraction = 1.0;
  /// Refit the final pipeline on train+validation before returning.
  bool refit = true;
  /// Draw a fresh validation split for every BO iteration (reduces
  /// validation overfitting).
  bool random_validation_split = false;
  /// Grow the training set successive-halving-style (10 instances per
  /// class upward), abandoning configurations that fall behind.
  bool incremental_training = true;
  /// Random BO warm-up evaluations.
  int num_initial_random = 10;
  /// §3.8 (early stopping): end the search after this many consecutive
  /// evaluations without validation improvement; 0 disables. Saves the
  /// energy the paper shows is wasted once small datasets start
  /// overfitting (Table 6).
  int early_stopping_patience = 0;
  /// §1 / [47] (CO2-aware objective): subtract
  /// energy_weight * log10(1 + inference FLOPs/row) / 6 from each
  /// candidate's validation score, steering BO toward pipelines that are
  /// cheap to serve; 0 disables. CAML's Pareto-oriented design ships a
  /// mild default — near-tied candidates resolve toward the cheaper
  /// pipeline (the paper's Table 4: CAML "chooses small models").
  double energy_weight = 0.08;
};

/// CAML: Bayesian optimization + successive halving + first-class ML
/// application constraints, strict budget adherence, single-pipeline
/// output (Table 1 row "CAML").
class CamlSystem : public AutoMlSystem {
 public:
  CamlSystem() : CamlSystem(CamlParams{}, "caml") {}
  CamlSystem(const CamlParams& params, std::string name)
      : params_(params), name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kStrict;
  }

  const CamlParams& params() const { return params_; }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  CamlParams params_;
  std::string name_;
};

}  // namespace green

#endif  // GREEN_AUTOML_CAML_SYSTEM_H_
