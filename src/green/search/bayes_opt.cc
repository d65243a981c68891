#include "green/search/bayes_opt.h"

#include <algorithm>
#include <cstddef>

#include "green/common/logging.h"

namespace green {

BayesOpt::BayesOpt(const ParamSpace* space, const Options& options)
    : space_(space),
      options_(options),
      rng_(options.seed),
      surrogate_([&] {
        RfSurrogate::Options o = options.surrogate;
        o.seed = HashCombine(options.seed, 0x50f7);
        return o;
      }()) {
  GREEN_CHECK(space_ != nullptr);
}

ParamPoint BayesOpt::Ask() {
  if (num_observations() < options_.num_initial_random ||
      !surrogate_.fitted()) {
    return space_->Sample(&rng_);
  }
  // Optimize EI by candidate sampling: cheap, derivative-free, and good
  // enough in low-dimensional pipeline spaces. The unit coordinates come
  // from the same NextDouble calls, in the same order, as one Sample per
  // candidate; Decode draws nothing, so decoding only the winner leaves
  // the RNG stream unchanged. `>` keeps the first maximum.
  const size_t dim = space_->dimension();
  const size_t count =
      static_cast<size_t>(std::max(1, options_.candidates_per_ask));
  candidate_units_.resize(count * dim);
  candidate_ei_.resize(count);
  for (double& u : candidate_units_) u = rng_.NextDouble();
  surrogate_.ExpectedImprovementBatch(candidate_units_.data(), count, dim,
                                      best_score_, candidate_ei_.data());
  size_t best = 0;
  for (size_t i = 1; i < count; ++i) {
    if (candidate_ei_[i] > candidate_ei_[best]) best = i;
  }
  const auto first = candidate_units_.begin() +
                     static_cast<std::ptrdiff_t>(best * dim);
  auto decoded = space_->Decode(std::vector<double>(first, first + dim));
  GREEN_CHECK(decoded.ok());
  return std::move(decoded).value();
}

double BayesOpt::Tell(const ParamPoint& point, double score) {
  xs_.push_back(point.unit);
  ys_.push_back(score);
  if (score > best_score_) {
    best_score_ = score;
    best_point_ = point;
  }
  ++tells_since_refit_;
  double work = 0.0;
  if (num_observations() >= options_.num_initial_random &&
      tells_since_refit_ >= options_.refit_every) {
    work = surrogate_.Fit(xs_, ys_);
    tells_since_refit_ = 0;
  }
  return work;
}

}  // namespace green
