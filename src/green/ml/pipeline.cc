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
      ctx->ReplayTape(hit->tape);
      if (ctx->Interrupted()) {
        return Status::DeadlineExceeded("pipeline: interrupted mid-fit");
      }
      transformers_ = hit->transformers;
      cache_entry_ = hit;
      cache_adopted_ = true;
      GREEN_RETURN_IF_ERROR(model_->Fit(hit->transformed, ctx));
      fitted_ = true;
      return Status::Ok();
    }
  }

  Dataset current = train;
  ChargeTape tape;
  const bool recording = cacheable && ctx->StartTapeRecording(&tape);
  Status status = Status::Ok();
  for (auto& t : transformers_) {
    if (ctx->Interrupted()) {
      status = Status::DeadlineExceeded("pipeline: interrupted mid-fit");
      break;
    }
    status = t->Fit(current, ctx);
    if (!status.ok()) break;
    Result<Dataset> transformed = t->Transform(current, ctx);
    if (!transformed.ok()) {
      status = transformed.status();
      break;
    }
    current = std::move(transformed).value();
  }
  if (recording) ctx->StopTapeRecording();
  GREEN_RETURN_IF_ERROR(status);
  if (recording && !ctx->charge_truncated()) {
    cache_entry_ = cache->Insert(train, chain_signature, transformers_,
                                 current, std::move(tape));
    if (cache_entry_ != nullptr) {
      // The chain is now shared with the cache (possibly a racing
      // incumbent's equivalently fitted instances): adopt it so later
      // hits and this pipeline use the same objects.
      transformers_ = cache_entry_->transformers;
      cache_adopted_ = true;
    }
  }
  GREEN_RETURN_IF_ERROR(model_->Fit(current, ctx));
  fitted_ = true;
  return Status::Ok();
}

Result<Dataset> Pipeline::RunTransforms(const Dataset& data,
                                        ExecutionContext* ctx) const {
  if (transformers_.empty()) return data;

  // Predict-path memo: the same eval/test view flows through the same
  // fitted chain once per scoring pass; memoize the result keyed by the
  // adopted cache entry. Replaying the recorded tape keeps all simulated
  // quantities bit-identical to recomputing (the compute path below also
  // stops metering at truncation, so no interrupt special-case is
  // needed).
  TransformCache* cache = ctx->transform_cache();
  const bool memoable = cache != nullptr && cache_entry_ != nullptr;
  if (memoable) {
    if (auto memo = cache->LookupPredict(cache_entry_, data)) {
      ctx->ReplayTape(memo->tape);
      return memo->transformed;
    }
  }

  std::vector<const Transformer*> chain;
  chain.reserve(transformers_.size());
  for (const auto& t : transformers_) chain.push_back(t.get());
  ChargeTape tape;
  const bool recording = memoable && ctx->StartTapeRecording(&tape);
  Result<Dataset> transformed = RunTransformChain(chain, data, ctx);
  if (recording) ctx->StopTapeRecording();
  if (transformed.ok() && recording && !ctx->charge_truncated()) {
    cache->InsertPredict(cache_entry_, data, *transformed, std::move(tape));
  }
  return transformed;
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
