#ifndef GREEN_ML_MODELS_NAIVE_BAYES_H_
#define GREEN_ML_MODELS_NAIVE_BAYES_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Gaussian naive Bayes: the cheapest learner in the zoo (one pass over
/// the data to train, O(d*k) per prediction). FLAML-style cost-frugal
/// search starts from models of exactly this complexity class.
struct NaiveBayesParams {
  double var_smoothing = 1e-9;
};

class GaussianNaiveBayes : public Estimator {
 public:
  explicit GaussianNaiveBayes(const NaiveBayesParams& params)
      : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "naive_bayes"; }
  double InferenceFlopsPerRow(size_t num_features) const override {
    return 4.0 * static_cast<double>(num_features) *
           static_cast<double>(num_classes());
  }
  double ComplexityProxy() const override {
    return static_cast<double>(mean_.size() * 2 + log_prior_.size());
  }

 private:
  NaiveBayesParams params_;
  size_t num_features_ = 0;
  /// Row-major (k x d).
  std::vector<double> mean_;
  std::vector<double> var_;
  /// log(2 pi var_), the Gaussian normalizer; row-major (k x d).
  std::vector<double> log_norm_;
  std::vector<double> log_prior_;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_NAIVE_BAYES_H_
