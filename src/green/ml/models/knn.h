#ifndef GREEN_ML_MODELS_KNN_H_
#define GREEN_ML_MODELS_KNN_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// k-nearest-neighbours classifier (brute-force Euclidean scan).
/// The inverse energy profile of a linear model: training is free, but
/// every prediction costs O(n_train * d) — the same asymmetry that makes
/// TabPFN's in-context inference expensive in the paper.
struct KnnParams {
  int k = 5;
  bool distance_weighted = false;
};

class Knn : public Estimator {
 public:
  explicit Knn(const KnnParams& params) : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "knn"; }
  double InferenceFlopsPerRow(size_t num_features) const override {
    return 3.0 * static_cast<double>(train_.num_rows()) *
           static_cast<double>(num_features);
  }
  double ComplexityProxy() const override {
    return static_cast<double>(train_.num_rows() * train_.num_features());
  }

 private:
  KnnParams params_;
  Dataset train_;  ///< Memorized training set.
  /// Column-major copy of the training matrix (cols_[j * n + r]), built
  /// at fit so the per-query distance scan runs contiguously.
  std::vector<double> train_cols_;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_KNN_H_
