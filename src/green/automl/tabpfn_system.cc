#include "green/automl/tabpfn_system.h"

#include "green/ml/preprocess/imputer.h"

namespace green {

Status TabPfnSystem::Search(const Dataset& train,
                            const AutoMlOptions& /*options*/,
                            ExecutionContext* ctx, AutoMlRunResult* result) {
  // TabPFN consumes the raw table directly; only missing values need
  // handling before the forward pass.
  Pipeline pipeline;
  pipeline.AddTransformer(std::make_unique<MeanModeImputer>());
  pipeline.SetModel(std::make_unique<AttentionFewShot>(model_params_));
  GREEN_RETURN_IF_ERROR(pipeline.Fit(train, ctx));

  result->pipelines_evaluated = 1;
  result->artifact = FittedArtifact::Single(
      std::make_shared<Pipeline>(std::move(pipeline)));
  // Zero search: there is no validation score to report; the paper's
  // benchmarks score TabPFN on test data only.
  result->best_validation_score = 0.0;
  return Status::Ok();
}

}  // namespace green
