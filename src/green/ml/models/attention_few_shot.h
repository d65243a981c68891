#ifndef GREEN_ML_MODELS_ATTENTION_FEW_SHOT_H_
#define GREEN_ML_MODELS_ATTENTION_FEW_SHOT_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// TabPFN stand-in: an in-context (few-shot) classifier.
///
/// The real TabPFN is a transformer pretrained offline on synthetic tasks;
/// at use time it performs NO search and NO training — it forward-passes
/// the labeled training set together with each query. We reproduce that
/// contract with a single scaled-dot-product attention layer over a fixed
/// random feature projection ("pretrained" weights derived from a
/// pretraining seed, independent of any user data):
///   * Fit() only memorizes (up to max_context rows of) the training set —
///     near-zero execution energy, like the paper's 0.29 s TabPFN column;
///   * PredictProba() projects the context AND the query and attends over
///     it — inference cost scales with context size, orders of magnitude
///     above a single tree/linear model;
///   * at most 10 classes are supported (the official implementation's
///     limit); beyond that the model degrades to the class prior;
///   * the matmul-shaped work is marked GPU-eligible, so on a GPU machine
///     inference gets dramatically cheaper (the paper's Table 3).
struct AttentionFewShotParams {
  int embed_dim = 48;
  int num_layers = 3;       ///< Scales the charged forward-pass cost.
  int max_context = 1024;   ///< TabPFN's small-data design point.
  int max_classes = 10;     ///< Hard limit of the official implementation.
  double temperature = 0.35;
  /// All "pretrained" weights derive from this seed, never from user data.
  uint64_t pretrain_seed = 0x7ab9f42023ULL;
};

class AttentionFewShot : public Estimator {
 public:
  explicit AttentionFewShot(const AttentionFewShotParams& params);

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "attention_few_shot"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override;

  bool class_limit_exceeded() const { return class_limit_exceeded_; }
  size_t context_size() const { return context_.num_rows(); }

 private:
  AttentionFewShotParams params_;
  Dataset context_;  ///< Memorized (sub)set of the training data.
  // Recomputed inside PredictProba — TabPFN's forward pass re-processes
  // the context on every call, so these caches are logically part of
  // inference, not model state.
  mutable std::vector<double> projection_;  ///< (embed_dim x input dim).
  mutable std::vector<double> feature_mean_;
  mutable std::vector<double> feature_std_;
  std::vector<double> prior_;
  bool class_limit_exceeded_ = false;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_ATTENTION_FEW_SHOT_H_
