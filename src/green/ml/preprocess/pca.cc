#include "green/ml/preprocess/pca.h"

#include <algorithm>
#include <cmath>

#include "green/common/rng.h"

namespace green {

namespace {

/// next = X^T (X v) in one pass over the row-major n x d matrix `x`,
/// four rows per block. Each row's score (X v)_r sums its terms in
/// ascending j, and next[j] adds the rows' terms in ascending r: the same
/// sums in the same order as forming X v first and X^T of it second.
void PowerStep(const double* x, size_t n, size_t d, const double* v,
               double* next) {
  std::fill(next, next + d, 0.0);
  size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const double* r0 = x + r * d;
    const double* r1 = r0 + d;
    const double* r2 = r1 + d;
    const double* r3 = r2 + d;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (size_t j = 0; j < d; ++j) {
      s0 += r0[j] * v[j];
      s1 += r1[j] * v[j];
      s2 += r2[j] * v[j];
      s3 += r3[j] * v[j];
    }
    for (size_t j = 0; j < d; ++j) {
      double t = next[j];
      t += r0[j] * s0;
      t += r1[j] * s1;
      t += r2[j] * s2;
      t += r3[j] * s3;
      next[j] = t;
    }
  }
  for (; r < n; ++r) {
    const double* row = x + r * d;
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += row[j] * v[j];
    for (size_t j = 0; j < d; ++j) next[j] += row[j] * s;
  }
}

}  // namespace

Result<TransformCharge> Pca::Learn(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n < 2) return Status::InvalidArgument("pca: need at least 2 rows");
  const size_t k = std::max<size_t>(1, std::min(num_components_, d));

  // Column means.
  mean_.assign(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < d; ++j) mean_[j] += train.At(r, j);
  }
  for (double& m : mean_) m /= static_cast<double>(n);

  // Centered data copy (n x d) for repeated products.
  std::vector<double> x(n * d);
  double total_variance = 0.0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < d; ++j) {
      const double v = train.At(r, j) - mean_[j];
      x[r * d + j] = v;
      total_variance += v * v;
    }
  }
  total_variance /= static_cast<double>(n - 1);

  Rng rng(seed_);
  components_.assign(k * d, 0.0);
  explained_variance_ratio_.assign(k, 0.0);
  double flops = static_cast<double>(n * d) * 2.0;

  std::vector<double> v(d);
  std::vector<double> next(d);
  for (size_t c = 0; c < k; ++c) {
    // Power iteration on X^T X with deflation through residualized X.
    for (double& vi : v) vi = rng.NextGaussian();
    for (int it = 0; it < power_iterations_; ++it) {
      // v' = X^T X v; normalize.
      PowerStep(x.data(), n, d, v.data(), next.data());
      double norm = 0.0;
      for (double nj : next) norm += nj * nj;
      norm = std::sqrt(norm);
      if (norm < 1e-12) break;  // Residual variance exhausted.
      for (size_t j = 0; j < d; ++j) v[j] = next[j] / norm;
      flops += 4.0 * static_cast<double>(n * d);
    }
    // Component variance and deflation, one pass: a row's score is taken
    // before that row is residualized.
    double variance = 0.0;
    for (size_t r = 0; r < n; ++r) {
      double* row = &x[r * d];
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) s += row[j] * v[j];
      variance += s * s;
      for (size_t j = 0; j < d; ++j) row[j] -= s * v[j];
    }
    variance /= static_cast<double>(n - 1);
    flops += 4.0 * static_cast<double>(n * d);
    std::copy(v.begin(), v.end(), components_.begin() + c * d);
    explained_variance_ratio_[c] =
        total_variance > 1e-12 ? variance / total_variance : 0.0;
  }
  components_fitted_ = k;
  output_schema_ = std::make_shared<Schema>(k);
  return TransformCharge{flops, static_cast<double>(n * d) * 8,
                         /*parallel_fraction=*/0.85};
}

void Pca::TransformRow(const double* in, double* out) const {
  const size_t d = input_width();
  for (size_t c = 0; c < components_fitted_; ++c) {
    const double* comp = &components_[c * d];
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += (in[j] - mean_[j]) * comp[j];
    out[c] = s;
  }
}

}  // namespace green
