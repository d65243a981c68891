#include "green/ml/pipeline.h"

#include "green/common/stringutil.h"
#include "green/ml/transform_cache.h"

namespace green {

void Pipeline::AddTransformer(std::unique_ptr<Transformer> transformer) {
  transformers_.push_back(std::move(transformer));
}

void Pipeline::SetModel(std::unique_ptr<Estimator> model) {
  model_ = std::move(model);
}

std::string Pipeline::ChainSignature() const {
  std::vector<std::string> parts;
  parts.reserve(transformers_.size());
  for (const auto& t : transformers_) parts.push_back(t->ConfigSignature());
  return Join(parts, "|");
}

Status Pipeline::Fit(const Dataset& train, ExecutionContext* ctx) {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("pipeline has no model");
  }
  if (cache_adopted_) {
    // The transformers are shared with the cache; re-Fit would mutate
    // state other pipelines may be reading.
    return Status::FailedPrecondition(
        "pipeline adopted cache-shared transformers and cannot be refitted");
  }
  ChargeScope scope(ctx, "fit");
  fitted_input_width_ = train.num_features();

  TransformCache* cache = ctx->transform_cache();
  const bool cacheable = cache != nullptr && !transformers_.empty();
  std::string chain_signature;
  if (cacheable) {
    chain_signature = ChainSignature();
    if (auto hit = cache->Lookup(train, chain_signature)) {
      // Re-issue the charges a miss would: each step's fit, then its
      // transform of the train rows, each under the step's own scope.
      for (const auto& t : hit->transformers) {
        if (ctx->Interrupted()) {
          return Status::DeadlineExceeded("pipeline: interrupted mid-fit");
        }
        t->ChargeFit(ctx);
        const Transformer* step[] = {t.get()};
        ChargeTransformChain(step, train.num_rows(), ctx);
      }
      transformers_ = hit->transformers;
      cache_adopted_ = true;
      GREEN_RETURN_IF_ERROR(model_->Fit(hit->transformed, ctx));
      fitted_ = true;
      return Status::Ok();
    }
  }

  Dataset current = train;
  for (auto& t : transformers_) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("pipeline: interrupted mid-fit");
    }
    GREEN_RETURN_IF_ERROR(t->Fit(current, ctx));
    GREEN_ASSIGN_OR_RETURN(current, t->Transform(current, ctx));
  }
  if (cacheable && !ctx->charge_truncated()) {
    if (auto admitted =
            cache->Insert(train, chain_signature, transformers_, current)) {
      // The chain is now shared with the cache (possibly a racing
      // incumbent's equivalently fitted instances): adopt it so later
      // hits and this pipeline use the same objects.
      transformers_ = admitted->transformers;
      cache_adopted_ = true;
    }
  }
  GREEN_RETURN_IF_ERROR(model_->Fit(current, ctx));
  fitted_ = true;
  return Status::Ok();
}

Result<Dataset> Pipeline::RunTransforms(const Dataset& data,
                                        ExecutionContext* ctx) const {
  std::vector<const Transformer*> chain;
  chain.reserve(transformers_.size());
  for (const auto& t : transformers_) chain.push_back(t.get());
  return RunTransformChain(chain, data, ctx);
}

Result<ProbaMatrix> Pipeline::PredictProba(const Dataset& data,
                                           ExecutionContext* ctx) const {
  if (!fitted_) return Status::FailedPrecondition("pipeline not fitted");
  ChargeScope scope(ctx, "predict");
  GREEN_ASSIGN_OR_RETURN(Dataset transformed, RunTransforms(data, ctx));
  return model_->PredictProba(transformed, ctx);
}

Result<std::vector<int>> Pipeline::Predict(const Dataset& data,
                                           ExecutionContext* ctx) const {
  if (!fitted_) return Status::FailedPrecondition("pipeline not fitted");
  ChargeScope scope(ctx, "predict");
  GREEN_ASSIGN_OR_RETURN(Dataset transformed, RunTransforms(data, ctx));
  return model_->Predict(transformed, ctx);
}

std::string Pipeline::Describe() const {
  std::vector<std::string> parts;
  for (const auto& t : transformers_) parts.push_back(t->Name());
  parts.push_back(model_ ? model_->Name() : "<none>");
  return Join(parts, "|");
}

double Pipeline::InferenceFlopsPerRow(size_t raw_num_features) const {
  double flops = 0.0;
  size_t width = raw_num_features;
  for (const auto& t : transformers_) {
    flops += t->TransformFlopsPerRow(width);
    width = t->OutputWidth(width);
  }
  if (model_ != nullptr) flops += model_->InferenceFlopsPerRow(width);
  return flops;
}

}  // namespace green
