#include "green/automl/flaml_system.h"

#include <algorithm>
#include <cmath>

#include "green/common/logging.h"
#include "green/table/split.h"

namespace green {

namespace {

/// Learner ladder, cheapest first, with FLAML-style low-cost starting
/// points (e.g. "a random forest with 5 trees and at most 10 leaves").
struct Rung {
  const char* model;
  std::map<std::string, double> start_params;
};

const std::vector<Rung>& LearnerLadder() {
  static const std::vector<Rung>* kLadder = new std::vector<Rung>{
      {"naive_bayes", {}},
      {"decision_tree", {{"max_depth", 4}}},
      {"logistic_regression", {{"epochs", 8}}},
      {"extra_trees", {{"num_trees", 5}, {"max_depth", 4}}},
      {"random_forest", {{"num_trees", 5}, {"max_depth", 4}}},
      {"gradient_boosting",
       {{"num_rounds", 8}, {"max_depth", 2}, {"learning_rate", 0.2}}},
  };
  return *kLadder;
}

/// Local hyperparameter mutation: multiplicative jitter on the current
/// numeric parameters (FLAML's randomized directional search, reduced to
/// its cost-aware essence).
std::map<std::string, double> Mutate(
    const std::map<std::string, double>& params, Rng* rng,
    bool toward_complexity) {
  std::map<std::string, double> out = params;
  for (auto& [key, value] : out) {
    double factor = std::exp(rng->NextGaussian() * 0.25);
    if (toward_complexity && (key == "num_trees" || key == "max_depth" ||
                              key == "num_rounds" || key == "epochs")) {
      factor = std::max(factor, 1.0 + rng->NextDouble());
    }
    double v = value * factor;
    if (key == "max_depth") v = std::clamp(v, 2.0, 16.0);
    if (key == "num_trees") v = std::clamp(v, 3.0, 64.0);
    if (key == "num_rounds") v = std::clamp(v, 4.0, 80.0);
    if (key == "epochs") v = std::clamp(v, 4.0, 60.0);
    if (key == "learning_rate") v = std::clamp(v, 0.02, 0.5);
    out[key] = v;
  }
  return out;
}

}  // namespace

Status FlamlSystem::Search(const Dataset& train, const AutoMlOptions& options,
                           ExecutionContext* ctx, AutoMlRunResult* result) {
  Rng rng(options.seed);
  TrainTestData holdout = Materialize(
      train, SplitForTask(train, 1.0 - params_.holdout_fraction, &rng));

  // Regression drops the ladder rungs whose learners cannot fit it
  // (e.g. naive_bayes); classification keeps the full ladder verbatim.
  std::vector<Rung> ladder;
  for (const Rung& rung : LearnerLadder()) {
    if (ModelSupportsTask(rung.model, train.task())) {
      ladder.push_back(rung);
    }
  }

  // Wide-data feature pruning: enabled automatically for very wide
  // tasks, carried by every candidate pipeline.
  const bool prune_features =
      train.num_features() >
      static_cast<size_t>(params_.wide_data_feature_cap);

  size_t ladder_index = 0;
  size_t sample_size =
      std::min(params_.initial_sample, holdout.train.num_rows());
  std::map<std::string, double> current_params = ladder[0].start_params;

  Incumbent best;
  double best_cost = 0.0;
  int stall = 0;
  int iteration = 0;

  {
  ChargeScope search_scope(ctx, "search");
  while (MayStartEvaluation(*ctx, 0.0)) {
    if (ctx->Cancelled()) {
      return Status::DeadlineExceeded("flaml: cancelled mid-search");
    }
    const Rung& rung = ladder[ladder_index];
    PipelineConfig config;
    config.model = rung.model;
    config.params = iteration == 0
                        ? rung.start_params
                        : Mutate(current_params, &rng,
                                 /*toward_complexity=*/stall > 0);
    config.scaler = "standard";
    if (prune_features) {
      config.select_k_best = params_.wide_data_feature_cap;
    }
    config.seed = HashCombine(options.seed, iteration + 1);
    ++iteration;

    Dataset stage =
        sample_size < holdout.train.num_rows()
            ? holdout.train.Subset(
                  SampleRows(holdout.train, sample_size, &rng))
            : holdout.train;
    auto evaluated = TrainAndScore(config, stage, holdout.test, ctx);
    if (!evaluated.ok()) continue;
    ++result->pipelines_evaluated;

    const double score = evaluated.value().val_score;
    const double cost =
        evaluated.value().pipeline->InferenceFlopsPerRow(
            train.num_features());
    // Accept if better, or equal quality at lower inference cost.
    const bool improved =
        score > best.score + 1e-9 ||
        (score > best.score - 1e-9 && cost < best_cost);
    if (improved) {
      best = Incumbent{evaluated.value().pipeline, score, config};
      best_cost = cost;
      current_params = config.params;
      stall = 0;
    } else {
      ++stall;
    }

    // Escalation: first grow the sample, then move up the ladder.
    if (stall >= params_.patience) {
      stall = 0;
      if (sample_size < holdout.train.num_rows()) {
        sample_size = std::min(
            holdout.train.num_rows(),
            static_cast<size_t>(static_cast<double>(sample_size) *
                                params_.sample_growth));
      } else if (ladder_index + 1 < ladder.size()) {
        ++ladder_index;
        current_params = ladder[ladder_index].start_params;
      }
    }
  }
  }

  return FinishSingle(std::move(best),
                      CheapestConfig(train.task(), options.seed), holdout,
                      /*refit_data=*/nullptr, ctx, result);
}

}  // namespace green
