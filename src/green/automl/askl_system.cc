#include "green/automl/askl_system.h"

#include <algorithm>
#include <limits>

#include "green/common/logging.h"
#include "green/search/bayes_opt.h"
#include "green/search/caruana.h"
#include "green/table/split.h"

namespace green {

std::vector<PipelineConfig> AsklMetaStore::WarmStartConfigs(
    const MetaFeatures& meta, size_t max_configs) const {
  if (entries_.empty()) return {};
  double best = std::numeric_limits<double>::infinity();
  const Entry* nearest = &entries_[0];
  for (const Entry& entry : entries_) {
    const double dist = MetaFeatureDistance(entry.meta, meta);
    if (dist < best) {
      best = dist;
      nearest = &entry;
    }
  }
  std::vector<PipelineConfig> out = nearest->top_configs;
  if (out.size() > max_configs) out.resize(max_configs);
  return out;
}

Result<AsklMetaStore> AsklMetaStore::BuildFromCorpus(
    const std::vector<Dataset>& corpus, int evals_per_dataset,
    uint64_t seed, ExecutionContext* ctx) {
  ChargeScope scope(ctx, "askl_meta_store");
  AsklMetaStore store;
  PipelineSpaceOptions space_options;
  space_options.models = {"decision_tree",  "random_forest",
                          "extra_trees",    "gradient_boosting",
                          "adaboost",       "logistic_regression",
                          "naive_bayes"};
  space_options.include_feature_preprocessors = true;
  PipelineSearchSpace space(space_options);

  Rng rng(seed);
  for (const Dataset& dataset : corpus) {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("askl: meta-store build cancelled");
    }
    Rng local = rng.Fork();
    TrainTestIndices split = StratifiedSplit(dataset, 0.67, &local);
    TrainTestData holdout = Materialize(dataset, split);

    std::vector<std::pair<double, PipelineConfig>> scored;
    for (int e = 0; e < evals_per_dataset; ++e) {
      const PipelineConfig config =
          space.SampleConfig(&local, HashCombine(seed, e + 1));
      auto evaluated =
          TrainAndScore(config, holdout.train, holdout.test, ctx);
      if (!evaluated.ok()) continue;
      scored.emplace_back(evaluated.value().val_score, config);
    }
    std::stable_sort(
        scored.begin(), scored.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    Entry entry;
    entry.meta = ComputeMetaFeatures(dataset);
    for (size_t i = 0; i < std::min<size_t>(3, scored.size()); ++i) {
      entry.top_configs.push_back(scored[i].second);
    }
    if (!entry.top_configs.empty()) store.AddEntry(std::move(entry));
  }
  if (store.size() == 0) {
    return Status::Internal("meta store construction produced no entries");
  }
  return store;
}

Status AsklSystem::Search(const Dataset& train, const AutoMlOptions& options,
                          ExecutionContext* ctx, AutoMlRunResult* result) {
  Rng rng(options.seed);
  TrainTestData holdout = Materialize(
      train, SplitForTask(train, 1.0 - params_.holdout_fraction, &rng));

  // Table 1: ASKL searches data AND feature preprocessors + models, the
  // broadest space of the studied systems (also the reason its very
  // first sampled pipeline can blow the whole budget).
  PipelineSpaceOptions space_options;
  space_options.models = FilterModelsForTask(
      {"decision_tree", "random_forest", "extra_trees",
       "gradient_boosting", "adaboost", "logistic_regression", "knn",
       "naive_bayes", "mlp"},
      train.task());
  space_options.include_data_preprocessors = true;
  space_options.include_feature_preprocessors = true;
  PipelineSearchSpace space(space_options);

  BayesOpt::Options bo_options;
  bo_options.num_initial_random = params_.num_initial_random;
  bo_options.seed = HashCombine(options.seed, 0xa5c1);
  BayesOpt optimizer(&space.space(), bo_options);

  std::vector<EvaluatedPipeline> library;

  // ASKL 2: evaluate the warm-start candidates from the most similar
  // repository dataset first (meta-learning moves this cost to the
  // development stage).
  if (params_.warm_start && meta_store_ != nullptr) {
    ChargeScope phase(ctx, "warm_start");
    const MetaFeatures meta = ComputeMetaFeatures(train);
    ctx->ChargeCpu(
        static_cast<double>(train.num_rows() * train.num_features()),
        train.FeatureBytes());
    for (PipelineConfig config : meta_store_->WarmStartConfigs(meta, 3)) {
      if (ctx->Cancelled()) {
        return Status::DeadlineExceeded("askl: cancelled mid-warm-start");
      }
      if (!MayStartEvaluation(*ctx, 0.0)) break;
      config.seed = HashCombine(options.seed, 0x3a3a);
      auto evaluated =
          TrainAndScore(config, holdout.train, holdout.test, ctx);
      if (!evaluated.ok()) continue;
      ++result->pipelines_evaluated;
      library.push_back(evaluated.value());
      // Warm-start observations seed the surrogate through a synthetic
      // point at the config's nearest unit encoding — approximated by a
      // fresh sample carrying the observed score.
      optimizer.Tell(space.space().Sample(&rng),
                     evaluated.value().val_score);
    }
  }

  int iteration = 0;
  {
    ChargeScope phase(ctx, "search");
    while (MayStartEvaluation(*ctx, 0.0)) {
      if (ctx->Cancelled()) {
        return Status::DeadlineExceeded("askl: cancelled mid-search");
      }
      const ParamPoint point = optimizer.Ask();
      const PipelineConfig config =
          space.ToConfig(point, HashCombine(options.seed, iteration + 101));
      ++iteration;
      auto evaluated =
          TrainAndScore(config, holdout.train, holdout.test, ctx);
      if (!evaluated.ok()) {
        const double work = optimizer.Tell(point, 0.0);
        ctx->ChargeCpu(std::max(work, 500.0), 0.0,
                       /*parallel_fraction=*/0.2);
        continue;
      }
      ++result->pipelines_evaluated;
      const double surrogate_work =
          optimizer.Tell(point, evaluated.value().val_score);
      ctx->ChargeCpu(surrogate_work, 0.0, /*parallel_fraction=*/0.2);
      library.push_back(std::move(evaluated).value());
    }
  }

  if (library.empty()) {
    GREEN_ASSIGN_OR_RETURN(
        EvaluatedPipeline fallback,
        TrainFallback(CheapestConfig(train.task(), options.seed), holdout,
                      ctx, result));
    library.push_back(std::move(fallback));
  }

  // Keep the top `ensemble_size` pipelines by validation score.
  std::stable_sort(library.begin(), library.end(),
                   [](const EvaluatedPipeline& a, const EvaluatedPipeline& b) {
                     return a.val_score > b.val_score;
                   });
  if (library.size() > static_cast<size_t>(params_.ensemble_size)) {
    library.resize(static_cast<size_t>(params_.ensemble_size));
  }

  // Caruana ensemble weighting — NOT counted against the search budget
  // (runs after the deadline; the cost grows with the validation set,
  // reproducing ASKL's Table 7 overruns).
  ChargeScope ensemble_scope(ctx, "ensemble");
  std::vector<ProbaMatrix> lib_proba;
  lib_proba.reserve(library.size());
  for (const auto& member : library) lib_proba.push_back(member.val_proba);
  CaruanaOptions caruana_options;
  caruana_options.max_rounds = params_.caruana_rounds;
  const CaruanaResult caruana =
      CaruanaEnsembleSelection(lib_proba, holdout.test, caruana_options);
  ctx->ChargeCpu(caruana.work, 0.0, /*parallel_fraction=*/0.5);

  std::vector<FittedArtifact::Member> members;
  for (size_t i = 0; i < library.size(); ++i) {
    if (caruana.weights.empty() || caruana.weights[i] <= 0.0) continue;
    FittedArtifact::Member member;
    member.folds.push_back(library[i].pipeline);
    member.weight = caruana.weights[i];
    members.push_back(std::move(member));
  }
  if (members.empty()) {
    FittedArtifact::Member member;
    member.folds.push_back(library[0].pipeline);
    member.weight = 1.0;
    members.push_back(std::move(member));
  }

  result->artifact = FittedArtifact::Weighted(std::move(members));
  result->best_validation_score =
      std::max(caruana.validation_score, library[0].val_score);
  return Status::Ok();
}

}  // namespace green
