#ifndef GREEN_ML_PIPELINE_H_
#define GREEN_ML_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "green/ml/estimator.h"

namespace green {

struct TransformCacheEntry;

/// A preprocessing chain followed by a classifier — the unit every AutoML
/// system in the paper searches over ("ML pipeline").
class Pipeline {
 public:
  Pipeline() = default;

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  void AddTransformer(std::unique_ptr<Transformer> transformer);
  void SetModel(std::unique_ptr<Estimator> model);

  /// Fits transformers left-to-right, then the model, charging all work.
  ///
  /// When the ExecutionContext carries a TransformCache, the fitted
  /// transformer chain is memoized by (train storage identity + row view,
  /// chain config signature). On a hit the host-side refit is skipped and
  /// each step re-issues its fit and transform charges under its own
  /// scope, so every simulated quantity (clock, meter, scope tree, trace)
  /// is bit-identical either way. A
  /// pipeline that adopted cached transformers cannot be refitted — build
  /// a fresh one (every call site already does).
  Status Fit(const Dataset& train, ExecutionContext* ctx);

  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const;
  Result<std::vector<int>> Predict(const Dataset& data,
                                   ExecutionContext* ctx) const;

  /// "prep1|prep2|model" — used in reports and search logs.
  std::string Describe() const;

  /// Total abstract inference work per scored row (transformers + model),
  /// the quantity CAML's inference-time constraint bounds.
  double InferenceFlopsPerRow(size_t raw_num_features) const;

  double ModelComplexity() const {
    return model_ ? model_->ComplexityProxy() : 0.0;
  }
  bool fitted() const { return fitted_; }
  const Estimator* model() const { return model_.get(); }
  size_t num_transformers() const { return transformers_.size(); }

 private:
  Result<Dataset> RunTransforms(const Dataset& data,
                                ExecutionContext* ctx) const;

  /// '|'-joined ConfigSignatures of the transformer chain (cache key).
  std::string ChainSignature() const;

  /// Shared so a fitted chain can be adopted from / donated to the
  /// transform cache; unique until the first cache interaction.
  std::vector<std::shared_ptr<Transformer>> transformers_;
  std::unique_ptr<Estimator> model_;
  /// The cache entry this pipeline's chain lives in (hit or donated miss);
  /// enables the predict-path transform memo. Null when uncached.
  std::shared_ptr<const TransformCacheEntry> cache_entry_;
  bool fitted_ = false;
  bool cache_adopted_ = false;
  size_t fitted_input_width_ = 0;
};

}  // namespace green

#endif  // GREEN_ML_PIPELINE_H_
