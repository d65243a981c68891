#ifndef GREEN_SERVE_ARTIFACT_LADDER_H_
#define GREEN_SERVE_ARTIFACT_LADDER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "green/automl/fitted_artifact.h"
#include "green/energy/energy_model.h"
#include "green/table/dataset.h"

namespace green {

/// One rung of the degrade ladder: either a FittedArtifact or (last rung
/// only) a constant class-prior predictor that costs next to nothing and
/// can never miss a deadline — its one tiny charge always fits in a
/// single slice, which is what guarantees the degrade loop terminates.
struct ArtifactTier {
  std::string name;
  FittedArtifact artifact;             ///< Empty for the constant tier.
  std::vector<double> constant_proba;  ///< Class priors; constant tier only.
  /// Probed per-row inference cost, measured on a scratch meter and
  /// context at build time. The serving layer uses these to preselect the
  /// best tier that satisfies a per-request energy SLO.
  double est_seconds_per_row = 0.0;
  double est_joules_per_row = 0.0;

  bool IsConstant() const { return !constant_proba.empty(); }

  /// Predicts class probabilities for `batch`, charging `ctx` like any
  /// instrumented kernel. Artifact tiers can be truncated mid-predict by
  /// a hard deadline (DEADLINE_EXCEEDED); the constant tier cannot.
  Result<ProbaMatrix> PredictProba(const Dataset& batch,
                                   ExecutionContext* ctx) const;
};

/// The tiered registry an InferenceServer degrades through: the full
/// fitted artifact first, then its best single-pipeline distillation,
/// then a constant class-prior fallback. Cheaper rungs trade accuracy for
/// latency and Joules — the serving-side expression of the paper's
/// ensemble-vs-single inference gap (O1).
class ArtifactLadder {
 public:
  /// Builds the ladder and probes each tier's per-row cost by predicting
  /// on up to `probe_rows` rows of `train` with a scratch clock + meter
  /// (nothing lands on any caller-visible meter). The single tier is
  /// dropped when the artifact already is one pipeline.
  static Result<ArtifactLadder> Build(const FittedArtifact& artifact,
                                      const Dataset& train,
                                      const EnergyModel* model,
                                      size_t probe_rows = 16);

  const std::vector<ArtifactTier>& tiers() const { return tiers_; }
  size_t size() const { return tiers_.size(); }
  const ArtifactTier& tier(size_t i) const { return tiers_[i]; }

 private:
  std::vector<ArtifactTier> tiers_;
};

}  // namespace green

#endif  // GREEN_SERVE_ARTIFACT_LADDER_H_
