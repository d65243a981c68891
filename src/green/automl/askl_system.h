#ifndef GREEN_AUTOML_ASKL_SYSTEM_H_
#define GREEN_AUTOML_ASKL_SYSTEM_H_

#include <string>
#include <vector>

#include "green/automl/automl_system.h"
#include "green/automl/search_model_space.h"
#include "green/ml/model_registry.h"
#include "green/table/metafeatures.h"

namespace green {

/// The meta-learning store behind AutoSklearn 2's warm start: for each
/// repository dataset, its meta-features and the best pipeline configs an
/// offline search found. Building it is a *development-stage* cost (the
/// paper: 140 datasets x 24 h) — callers meter it accordingly.
class AsklMetaStore {
 public:
  struct Entry {
    MetaFeatures meta;
    std::vector<PipelineConfig> top_configs;
  };

  void AddEntry(Entry entry) { entries_.push_back(std::move(entry)); }
  size_t size() const { return entries_.size(); }

  /// Top configs of the repository dataset most similar to `meta`
  /// (empty if the store is empty).
  std::vector<PipelineConfig> WarmStartConfigs(const MetaFeatures& meta,
                                               size_t max_configs) const;

  /// Builds a store by running short random searches over `corpus`,
  /// charging everything to `ctx` (attach a development-stage meter).
  static Result<AsklMetaStore> BuildFromCorpus(
      const std::vector<Dataset>& corpus, int evals_per_dataset,
      uint64_t seed, ExecutionContext* ctx);

 private:
  std::vector<Entry> entries_;
};

/// AutoSklearn 1 & 2: Bayesian optimization over data/feature
/// preprocessors + models, Caruana ensembling of the top evaluated
/// pipelines. Version 2 warm-starts BO from the meta store. The ensemble
/// weighting step runs AFTER the search deadline (the paper's Table 7:
/// ASKL's actual runtime exceeds the budget the most, growing with
/// validation size).
struct AsklParams {
  bool warm_start = false;          ///< true = ASKL 2.
  int ensemble_size = 50;           ///< Library size eligible for Caruana.
  int caruana_rounds = 15;
  int num_initial_random = 8;
  double holdout_fraction = 0.33;
};

class AsklSystem : public AutoMlSystem {
 public:
  AsklSystem(const AsklParams& params, const AsklMetaStore* meta_store)
      : params_(params), meta_store_(meta_store) {}

  std::string Name() const override {
    return params_.warm_start ? "autosklearn2" : "autosklearn1";
  }
  double MinBudgetSeconds() const override { return 30.0; }
  size_t MinTrainRows() const override { return 0; }
  BudgetPolicyKind budget_policy() const override {
    return BudgetPolicyKind::kEnsemblingNotCounted;
  }

 protected:
  Status Search(const Dataset& train, const AutoMlOptions& options,
                ExecutionContext* ctx, AutoMlRunResult* result) override;

 private:
  AsklParams params_;
  const AsklMetaStore* meta_store_;  // Not owned; may be null (ASKL 1).
};

}  // namespace green

#endif  // GREEN_AUTOML_ASKL_SYSTEM_H_
