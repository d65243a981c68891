#ifndef GREEN_AUTOML_FITTED_ARTIFACT_H_
#define GREEN_AUTOML_FITTED_ARTIFACT_H_

#include <memory>
#include <string>
#include <vector>

#include "green/ml/pipeline.h"

namespace green {

/// The deployable output of an AutoML run. Three shapes cover all the
/// systems in the paper:
///   * single  — one pipeline (CAML, FLAML, TPOT, TabPFN);
///   * weighted — Caruana-weighted probability blend (AutoSklearn);
///   * stacked — bagged base layer whose out-of-fold probabilities feed a
///     meta layer, itself Caruana-weighted (AutoGluon).
/// Inference energy follows directly from shape: every member pipeline
/// charges its own work, which is what produces the paper's
/// order-of-magnitude gap between ensembles and single models (O1).
class FittedArtifact {
 public:
  /// One logical ensemble member: `folds` holds either a single pipeline
  /// (plain member / refit member) or the k bagged fold-pipelines whose
  /// probabilities are averaged at inference (AutoGluon without refit).
  struct Member {
    std::vector<std::shared_ptr<const Pipeline>> folds;
    double weight = 1.0;
  };

  FittedArtifact() = default;

  static FittedArtifact Single(std::shared_ptr<const Pipeline> pipeline);
  static FittedArtifact Weighted(std::vector<Member> members);
  /// `base` members produce class probabilities that are appended to the
  /// raw features before `meta` members score the instance.
  /// `raw_columns` describes the raw features (the training table's
  /// schema): the meta layer's input columns are built from it once, here,
  /// and shared with every predict input named and typed alike.
  static FittedArtifact Stacked(std::vector<Member> base,
                                std::vector<Member> meta,
                                std::shared_ptr<const Schema> raw_columns);

  bool empty() const { return base_.empty(); }
  bool stacked() const { return !meta_.empty(); }

  /// Task of the underlying model(s), read off the first base pipeline
  /// (all members of one artifact share a task). kBinary when empty.
  TaskType task() const;

  /// Total pipelines that execute per prediction (all folds, all layers).
  size_t NumPipelines() const;

  /// Both predict entry points poll the context between member
  /// pipelines and unwind with DEADLINE_EXCEEDED when a charge was
  /// truncated mid-predict (a cancelled cell token, or a serving-layer
  /// hard deadline) — the inference-side mirror of the mid-fit unwind.
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const;
  Result<std::vector<int>> Predict(const Dataset& data,
                                   ExecutionContext* ctx) const;

  /// The one-pipeline degradation of this artifact: the highest-weight
  /// base member's first fold as a Single artifact. For a stack this
  /// drops the meta layer entirely. This is the serving ladder's middle
  /// tier — the cheaper fallback an overloaded server degrades to
  /// (inference cost shrinks by the ensemble factor of O1).
  Result<FittedArtifact> DistillBestSingle() const;

  /// Abstract inference work per row — the quantity CAML's constraint
  /// bounds and Table 4's trillion-prediction projection scales up.
  double InferenceFlopsPerRow(size_t raw_num_features) const;

  std::string Describe() const;

 private:
  Result<ProbaMatrix> MemberProba(const Member& member, const Dataset& data,
                                  ExecutionContext* ctx) const;

  std::vector<Member> base_;
  std::vector<Member> meta_;
  /// Stacked only: the raw feature columns, and the meta layer's input
  /// columns for them (never written after Stacked).
  std::shared_ptr<const Schema> raw_columns_;
  std::shared_ptr<Schema> augmented_columns_;
};

}  // namespace green

#endif  // GREEN_AUTOML_FITTED_ARTIFACT_H_
