#include "green/ml/model_registry.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "green/common/stringutil.h"
#include "green/ml/models/adaboost.h"
#include "green/ml/models/attention_few_shot.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/models/extra_trees.h"
#include "green/ml/models/gradient_boosting.h"
#include "green/ml/models/knn.h"
#include "green/ml/models/logistic_regression.h"
#include "green/ml/models/mlp.h"
#include "green/ml/models/naive_bayes.h"
#include "green/ml/models/random_forest.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/pca.h"
#include "green/ml/preprocess/scaler.h"

namespace green {

namespace {

using Params = std::map<std::string, double>;
using Built = std::unique_ptr<Estimator>;

/// `key` from `params`, or `fallback` (the model's own default) if absent.
double Get(const Params& params, const char* key, double fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

/// Overwrites a defaulted model field with `key` from `params`; integer
/// fields truncate. The cost terms read the untruncated value via Get.
template <typename T>
void Read(const Params& params, const char* key, T* field) {
  *field = static_cast<T>(Get(params, key, *field));
}

/// The log factor of split search over n rows.
double LogN(double n) { return std::log2(std::max(2.0, n)); }

/// Forest training work. `kScale` is the share of an exhaustive split
/// search each split costs (extra trees draw random thresholds); a
/// max_features_fraction that is absent or 0 means sqrt(d)/d.
template <typename ForestParams, double kScale>
double ForestTrainCost(const Params& p, double n, double d, double) {
  constexpr ForestParams kDefault;
  const double sqrt_frac = std::sqrt(d) / std::max(1.0, d);
  const double frac =
      Get(p, "max_features_fraction", kDefault.max_features_fraction);
  return Get(p, "num_trees", kDefault.num_trees) * n * LogN(n) * d *
         (frac > 0 ? frac : sqrt_frac) *
         Get(p, "max_depth", kDefault.max_depth) * kScale;
}

template <typename ForestParams>
double ForestPredictCost(const Params& p, double, double, double k) {
  constexpr ForestParams kDefault;
  return Get(p, "num_trees", kDefault.num_trees) *
         (2.0 * Get(p, "max_depth", kDefault.max_depth) + k);
}

/// Everything the registry knows about one model family. Defaults live in
/// the family's params struct; the cost terms are relative work on top of
/// the preprocessing floor, over n train rows, d features and k classes.
struct ModelFamily {
  const char* name;
  bool fits_regression;
  Built (*build)(const Params& p, uint64_t seed);
  double (*train_cost)(const Params& p, double n, double d, double k);
  /// Per predicted row.
  double (*predict_cost)(const Params& p, double n, double d, double k);
};

// The defaults the cost terms fall back to, as the builders do.
constexpr DecisionTreeParams kTree;
constexpr GradientBoostingParams kBoosting;
constexpr AdaBoostParams kAda;
constexpr LogisticRegressionParams kLogistic;
constexpr MlpParams kMlp;
constexpr AttentionFewShotParams kAttention;

/// One row per family, in KnownModels() order.
constexpr ModelFamily kFamilies[] = {
    {"decision_tree", true, [](const Params& p, uint64_t seed) -> Built {
       DecisionTreeParams dt;
       Read(p, "max_depth", &dt.max_depth);
       Read(p, "min_samples_leaf", &dt.min_samples_leaf);
       Read(p, "max_features_fraction", &dt.max_features_fraction);
       dt.seed = seed;
       return std::make_unique<DecisionTree>(dt);
     },
     [](const Params& p, double n, double d, double) {
       return n * LogN(n) * d * Get(p, "max_depth", kTree.max_depth);
     },
     [](const Params& p, double, double, double) {
       return 2.0 * Get(p, "max_depth", kTree.max_depth);
     }},
    {"random_forest", true, [](const Params& p, uint64_t seed) -> Built {
       RandomForestParams rf;
       Read(p, "num_trees", &rf.num_trees);
       Read(p, "max_depth", &rf.max_depth);
       Read(p, "min_samples_leaf", &rf.min_samples_leaf);
       Read(p, "max_features_fraction", &rf.max_features_fraction);
       Read(p, "bootstrap_fraction", &rf.bootstrap_fraction);
       rf.seed = seed;
       return std::make_unique<RandomForest>(rf);
     },
     ForestTrainCost<RandomForestParams, 1.0>,
     ForestPredictCost<RandomForestParams>},
    {"extra_trees", true, [](const Params& p, uint64_t seed) -> Built {
       ExtraTreesParams et;
       Read(p, "num_trees", &et.num_trees);
       Read(p, "max_depth", &et.max_depth);
       Read(p, "min_samples_leaf", &et.min_samples_leaf);
       Read(p, "max_features_fraction", &et.max_features_fraction);
       et.seed = seed;
       return std::make_unique<ExtraTrees>(et);
     },
     ForestTrainCost<ExtraTreesParams, 0.25>,
     ForestPredictCost<ExtraTreesParams>},
    {"gradient_boosting", true, [](const Params& p, uint64_t seed) -> Built {
       GradientBoostingParams gb;
       Read(p, "num_rounds", &gb.num_rounds);
       Read(p, "max_depth", &gb.max_depth);
       Read(p, "learning_rate", &gb.learning_rate);
       Read(p, "min_samples_leaf", &gb.min_samples_leaf);
       Read(p, "subsample", &gb.subsample);
       gb.seed = seed;
       return std::make_unique<GradientBoosting>(gb);
     },
     [](const Params& p, double n, double d, double k) {
       return Get(p, "num_rounds", kBoosting.num_rounds) * k * n * LogN(n) *
              d * Get(p, "max_depth", kBoosting.max_depth) * 0.5;
     },
     [](const Params& p, double, double, double k) {
       return 2.0 * Get(p, "num_rounds", kBoosting.num_rounds) * k *
              Get(p, "max_depth", kBoosting.max_depth);
     }},
    {"adaboost", false, [](const Params& p, uint64_t seed) -> Built {
       AdaBoostParams ab;
       Read(p, "num_rounds", &ab.num_rounds);
       Read(p, "max_depth", &ab.max_depth);
       Read(p, "learning_rate", &ab.learning_rate);
       ab.seed = seed;
       return std::make_unique<AdaBoost>(ab);
     },
     [](const Params& p, double n, double d, double) {
       return Get(p, "num_rounds", kAda.num_rounds) * n * LogN(n) * d *
              Get(p, "max_depth", kAda.max_depth);
     },
     [](const Params& p, double, double, double) {
       return 2.0 * Get(p, "num_rounds", kAda.num_rounds) *
              Get(p, "max_depth", kAda.max_depth);
     }},
    {"logistic_regression", true, [](const Params& p, uint64_t seed) -> Built {
       LogisticRegressionParams lr;
       Read(p, "epochs", &lr.epochs);
       Read(p, "learning_rate", &lr.learning_rate);
       Read(p, "l2", &lr.l2);
       Read(p, "batch_size", &lr.batch_size);
       lr.seed = seed;
       return std::make_unique<LogisticRegression>(lr);
     },
     [](const Params& p, double n, double d, double k) {
       return Get(p, "epochs", kLogistic.epochs) * 4.0 * n * d * k;
     },
     [](const Params&, double, double d, double k) { return 2.0 * d * k; }},
    {"knn", true, [](const Params& p, uint64_t) -> Built {
       KnnParams knn;
       Read(p, "k", &knn.k);
       knn.distance_weighted =
           Get(p, "distance_weighted", knn.distance_weighted) > 0.5;
       return std::make_unique<Knn>(knn);
     },
     [](const Params&, double n, double, double) { return n; },
     [](const Params&, double n, double d, double) { return 3.0 * n * d; }},
    {"naive_bayes", false, [](const Params& p, uint64_t) -> Built {
       NaiveBayesParams nb;
       Read(p, "var_smoothing", &nb.var_smoothing);
       return std::make_unique<GaussianNaiveBayes>(nb);
     },
     [](const Params&, double n, double d, double) { return 4.0 * n * d; },
     [](const Params&, double, double d, double k) { return 4.0 * d * k; }},
    {"mlp", true, [](const Params& p, uint64_t seed) -> Built {
       MlpParams mlp;
       Read(p, "hidden_units", &mlp.hidden_units);
       Read(p, "epochs", &mlp.epochs);
       Read(p, "learning_rate", &mlp.learning_rate);
       Read(p, "l2", &mlp.l2);
       Read(p, "batch_size", &mlp.batch_size);
       mlp.seed = seed;
       return std::make_unique<Mlp>(mlp);
     },
     [](const Params& p, double n, double d, double k) {
       return Get(p, "epochs", kMlp.epochs) * 4.0 * n * (d + k) *
              Get(p, "hidden_units", kMlp.hidden_units);
     },
     [](const Params& p, double, double d, double k) {
       return 2.0 * Get(p, "hidden_units", kMlp.hidden_units) * (d + k);
     }},
    {"attention_few_shot", false, [](const Params& p, uint64_t) -> Built {
       AttentionFewShotParams af;
       Read(p, "embed_dim", &af.embed_dim);
       Read(p, "num_layers", &af.num_layers);
       Read(p, "max_context", &af.max_context);
       Read(p, "temperature", &af.temperature);
       return std::make_unique<AttentionFewShot>(af);
     },
     [](const Params&, double n, double, double) { return n; },
     [](const Params& p, double n, double d, double) {
       return 3.0 * std::min(n, Get(p, "max_context", kAttention.max_context)) *
              (Get(p, "embed_dim", kAttention.embed_dim) + d);
     }},
};

/// The row named `model`, or nullptr.
const ModelFamily* FindFamily(const std::string& model) {
  for (const ModelFamily& family : kFamilies) {
    if (family.name == model) return &family;
  }
  return nullptr;
}

}  // namespace

std::string PipelineConfig::Describe() const {
  std::string out = model + "(";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("%s=%.4g", key.c_str(), value);
  }
  out += ")";
  std::vector<std::string> preps;
  if (impute) preps.push_back("imp");
  if (scaler != "none") preps.push_back(scaler);
  if (one_hot) preps.push_back("1hot");
  if (variance_threshold >= 0.0) preps.push_back("var");
  if (select_k_best > 0) {
    preps.push_back(StrFormat("k%d", select_k_best));
  }
  if (pca_components > 0) {
    preps.push_back(StrFormat("pca%d", pca_components));
  }
  if (quantile_binning) preps.push_back("bin");
  if (!preps.empty()) out = Join(preps, "+") + "|" + out;
  return out;
}

const std::vector<std::string>& KnownModels() {
  static const std::vector<std::string>* kModels = [] {
    auto* names = new std::vector<std::string>;
    for (const ModelFamily& family : kFamilies) names->push_back(family.name);
    return names;
  }();
  return *kModels;
}

bool ModelSupportsTask(const std::string& model, TaskType task) {
  if (IsClassification(task)) return true;
  const ModelFamily* family = FindFamily(model);
  return family != nullptr && family->fits_regression;
}

std::vector<std::string> FilterModelsForTask(
    const std::vector<std::string>& models, TaskType task) {
  std::vector<std::string> out;
  out.reserve(models.size());
  for (const std::string& m : models) {
    if (ModelSupportsTask(m, task)) out.push_back(m);
  }
  return out;
}

Result<Pipeline> BuildPipeline(const PipelineConfig& config) {
  Pipeline pipeline;
  if (config.impute) {
    pipeline.AddTransformer(std::make_unique<MeanModeImputer>());
  }
  if (config.one_hot) {
    pipeline.AddTransformer(std::make_unique<OneHotEncoder>());
  }
  if (config.scaler == "standard") {
    pipeline.AddTransformer(
        std::make_unique<Scaler>(ScalerKind::kStandard));
  } else if (config.scaler == "minmax") {
    pipeline.AddTransformer(std::make_unique<Scaler>(ScalerKind::kMinMax));
  } else if (config.scaler != "none") {
    return Status::InvalidArgument("unknown scaler: " + config.scaler);
  }
  if (config.quantile_binning) {
    pipeline.AddTransformer(std::make_unique<QuantileBinner>());
  }
  if (config.variance_threshold >= 0.0) {
    pipeline.AddTransformer(
        std::make_unique<VarianceThreshold>(config.variance_threshold));
  }
  if (config.select_k_best > 0) {
    pipeline.AddTransformer(std::make_unique<SelectKBest>(
        static_cast<size_t>(config.select_k_best)));
  }
  if (config.pca_components > 0) {
    pipeline.AddTransformer(std::make_unique<Pca>(
        static_cast<size_t>(config.pca_components)));
  }
  const ModelFamily* family = FindFamily(config.model);
  if (family == nullptr) {
    return Status::InvalidArgument("unknown model: " + config.model);
  }
  pipeline.SetModel(family->build(config.params, config.seed));
  return pipeline;
}

double EstimateTrainCost(const PipelineConfig& config, size_t rows,
                         size_t features, int classes) {
  const double n = static_cast<double>(rows);
  const double d = static_cast<double>(features);
  const double floor = 2.0 * n * d;  // Preprocessing.
  const ModelFamily* family = FindFamily(config.model);
  if (family == nullptr) return floor;
  return floor + family->train_cost(config.params, n, d,
                                    static_cast<double>(classes));
}

double EstimatePredictCost(const PipelineConfig& config, size_t train_rows,
                           size_t predict_rows, size_t features,
                           int classes) {
  const double d = static_cast<double>(features);
  double per_row = 2.0 * d;  // Preprocessing floor.
  if (const ModelFamily* family = FindFamily(config.model)) {
    per_row += family->predict_cost(config.params,
                                    static_cast<double>(train_rows), d,
                                    static_cast<double>(classes));
  }
  return per_row * static_cast<double>(predict_rows);
}

}  // namespace green
