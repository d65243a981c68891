#include "green/ml/models/attention_few_shot.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "green/common/mathutil.h"
#include "green/common/rng.h"
#include "green/ml/kernels/distance_kernels.h"
#include "green/table/split.h"

namespace green {

AttentionFewShot::AttentionFewShot(const AttentionFewShotParams& params)
    : params_(params) {}

Status AttentionFewShot::Fit(const Dataset& train, ExecutionContext* ctx) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("few_shot: empty training data");
  }
  if (train.task() == TaskType::kRegression) {
    return Status::Unimplemented("few_shot: regression not supported");
  }
  ChargeScope scope(ctx, Name());
  class_limit_exceeded_ = train.num_classes() > params_.max_classes;

  // TabPFN was "mainly developed for datasets with up to 1k instances":
  // larger training sets are stratified-subsampled into the context.
  if (train.num_rows() > static_cast<size_t>(params_.max_context)) {
    Rng rng(HashCombine(params_.pretrain_seed, train.num_rows()));
    const int per_class = std::max(
        1, params_.max_context / std::max(1, train.num_classes()));
    context_ = train.Subset(SamplePerClass(train, per_class, &rng));
  } else {
    context_ = train;
  }

  // Class prior (the fallback beyond the class limit, and a smoother).
  prior_.assign(static_cast<size_t>(train.num_classes()), 0.0);
  const std::vector<int> counts = train.ClassCounts();
  for (size_t c = 0; c < prior_.size(); ++c) {
    prior_[c] = (static_cast<double>(counts[c]) + 1.0) /
                (static_cast<double>(train.num_rows()) +
                 static_cast<double>(prior_.size()));
  }

  // Execution cost is just loading the pretrained weights and memorizing
  // the context — this is what makes TabPFN a single near-zero-energy
  // point on the execution chart.
  ctx->ChargeAccelerated(
      1.5e4 + static_cast<double>(context_.num_rows()),
      context_.FeatureBytes() + 4.0e6 /* weight load */);
  MarkFitted(train.num_classes());
  return Status::Ok();
}

Result<ProbaMatrix> AttentionFewShot::PredictProba(
    const Dataset& data, ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("few_shot not fitted");
  if (data.num_features() != context_.num_features()) {
    return Status::InvalidArgument("few_shot: feature count mismatch");
  }
  ChargeScope scope(ctx, Name());
  const size_t n_ctx = context_.num_rows();
  const size_t d = context_.num_features();
  const size_t h = static_cast<size_t>(params_.embed_dim);
  const int k = num_classes();
  ProbaMatrix out(data.num_rows());

  if (class_limit_exceeded_) {
    // Official-implementation limit: degrade to the class prior.
    for (auto& row : out) row = prior_;
    ctx->ChargeAccelerated(static_cast<double>(data.num_rows() * k),
                           data.FeatureBytes());
    return out;
  }

  // The "forward pass over the training data": feature normalization
  // statistics and context embeddings are recomputed here, at inference —
  // that is TabPFN's cost structure, and the reason its inference energy
  // dwarfs its execution energy.
  feature_mean_.assign(d, 0.0);
  feature_std_.assign(d, 1.0);
  for (size_t r = 0; r < n_ctx; ++r) {
    for (size_t j = 0; j < d; ++j) {
      feature_mean_[j] += context_.At(r, j);
    }
  }
  for (size_t j = 0; j < d; ++j) {
    feature_mean_[j] /= static_cast<double>(n_ctx);
  }
  for (size_t j = 0; j < d; ++j) {
    double var = 0.0;
    for (size_t r = 0; r < n_ctx; ++r) {
      const double dlt = context_.At(r, j) - feature_mean_[j];
      var += dlt * dlt;
    }
    var /= static_cast<double>(n_ctx);
    feature_std_[j] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }

  // Pretrained projection: fixed random weights from the pretrain seed.
  if (projection_.size() != h * d) {
    Rng rng(params_.pretrain_seed);
    projection_.resize(h * d);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d));
    for (double& w : projection_) w = rng.NextGaussian() * scale;
  }

  // Each row is normalized once into a scratch vector and projected to
  // a bounded tanh embedding, like a trained encoder; the keys live in
  // one contiguous n_ctx x h buffer. Per-score dot products add in
  // ascending index order.
  std::vector<double> norm(d);
  std::vector<double> keys(n_ctx * h);
  for (size_t r = 0; r < n_ctx; ++r) {
    const double* p = context_.RowPtr(r);
    for (size_t j = 0; j < d; ++j) {
      norm[j] = (p[j] - feature_mean_[j]) / feature_std_[j];
    }
    ProjectTanh(projection_.data(), h, d, norm.data(), keys.data() + r * h);
  }
  std::vector<double> query(h);
  std::vector<double> scores(n_ctx);
  const double denom =
      params_.temperature * std::sqrt(static_cast<double>(h));
  for (size_t q = 0; q < data.num_rows(); ++q) {
    const double* x = data.RowPtr(q);
    for (size_t j = 0; j < d; ++j) {
      norm[j] = (x[j] - feature_mean_[j]) / feature_std_[j];
    }
    ProjectTanh(projection_.data(), h, d, norm.data(), query.data());
    for (size_t r = 0; r < n_ctx; ++r) {
      const double* key = keys.data() + r * h;
      double s = 0.0;
      for (size_t i = 0; i < h; ++i) s += query[i] * key[i];
      scores[r] = s / denom;
    }
    SoftmaxInPlace(&scores);
    std::vector<double> proba(static_cast<size_t>(k), 0.0);
    for (size_t r = 0; r < n_ctx; ++r) {
      proba[static_cast<size_t>(context_.Label(r))] += scores[r];
    }
    // Prior smoothing (the transformer's calibrated head).
    for (int c = 0; c < k; ++c) {
      const size_t cc = static_cast<size_t>(c);
      proba[cc] = 0.95 * proba[cc] + 0.05 * prior_[cc];
    }
    out[q] = std::move(proba);
  }

  // Charged as `num_layers` transformer blocks over (context + query):
  // embeddings, attention scores, and value aggregation.
  const double per_query =
      static_cast<double>(params_.num_layers) *
      (static_cast<double>(n_ctx) * static_cast<double>(h) +
       static_cast<double>(h) * static_cast<double>(d) * 2.0);
  const double context_embed =
      static_cast<double>(params_.num_layers) * static_cast<double>(n_ctx) *
      static_cast<double>(h) * static_cast<double>(d) * 2.0;
  ctx->ChargeAccelerated(
      context_embed + per_query * static_cast<double>(data.num_rows()),
      data.FeatureBytes() + context_.FeatureBytes());
  return out;
}

double AttentionFewShot::InferenceFlopsPerRow(size_t num_features) const {
  const double n_ctx = static_cast<double>(context_.num_rows());
  const double h = static_cast<double>(params_.embed_dim);
  const double layers = static_cast<double>(params_.num_layers);
  return layers * (n_ctx * h +
                   h * static_cast<double>(num_features) * 2.0 +
                   n_ctx * h * static_cast<double>(num_features) * 0.1);
}

double AttentionFewShot::ComplexityProxy() const {
  return static_cast<double>(params_.embed_dim) *
             static_cast<double>(context_.num_features()) +
         static_cast<double>(context_.num_rows() *
                             context_.num_features());
}

}  // namespace green
