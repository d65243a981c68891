#ifndef GREEN_SEARCH_BAYES_OPT_H_
#define GREEN_SEARCH_BAYES_OPT_H_

#include <vector>

#include "green/search/param_space.h"
#include "green/search/rf_surrogate.h"

namespace green {

/// Ask/tell Bayesian optimizer with a random-forest surrogate and
/// expected-improvement acquisition — the SMAC recipe behind ASKL and
/// CAML. The ask/tell split lets callers interleave budget checks,
/// successive halving, and energy accounting between proposals.
class BayesOpt {
 public:
  struct Options {
    int num_initial_random = 10;  ///< Random warm-up before the surrogate.
    int candidates_per_ask = 64;  ///< EI is optimized by candidate sampling.
    int refit_every = 1;          ///< Surrogate refit cadence (in tells).
    RfSurrogate::Options surrogate;
    uint64_t seed = 1;
  };

  BayesOpt(const ParamSpace* space, const Options& options);

  /// Next point to evaluate. The first `num_initial_random` asks are
  /// uniform; afterwards EI over sampled candidates, scored in one batch,
  /// of which only the winner is decoded.
  ParamPoint Ask();

  /// Reports the observed score (higher = better). Returns the abstract
  /// surrogate-fitting work performed, for the caller to charge as search
  /// overhead.
  double Tell(const ParamPoint& point, double score);

  double best_score() const { return best_score_; }
  const ParamPoint& best_point() const { return best_point_; }
  int num_observations() const { return static_cast<int>(ys_.size()); }

 private:
  const ParamSpace* space_;  // Not owned.
  Options options_;
  Rng rng_;
  RfSurrogate surrogate_;
  std::vector<std::vector<double>> xs_;
  std::vector<double> ys_;
  // Ask scratch: candidates_per_ask unit vectors (row-major) and their EI.
  std::vector<double> candidate_units_;
  std::vector<double> candidate_ei_;
  ParamPoint best_point_;
  double best_score_ = -1e300;
  int tells_since_refit_ = 0;
};

}  // namespace green

#endif  // GREEN_SEARCH_BAYES_OPT_H_
