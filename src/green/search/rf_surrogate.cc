#include "green/search/rf_surrogate.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace green {

double RfSurrogate::Fit(const std::vector<std::vector<double>>& x,
                        const std::vector<double>& y) {
  trees_.clear();
  if (x.empty() || x.size() != y.size()) return 0.0;
  Rng rng(options_.seed);
  double work = 0.0;
  for (int t = 0; t < options_.num_trees; ++t) {
    Rng tree_rng = rng.Fork();
    // Bootstrap sample.
    std::vector<size_t> rows(x.size());
    for (size_t& r : rows) {
      r = static_cast<size_t>(tree_rng.NextBounded(x.size()));
    }
    FlatTree tree;
    BuildNode(x, y, &rows, 0, &tree, &tree_rng, &work);
    trees_.push_back(std::move(tree));
  }
  return work;
}

int RfSurrogate::BuildNode(const std::vector<std::vector<double>>& x,
                           const std::vector<double>& y,
                           std::vector<size_t>* rows, int depth,
                           FlatTree* tree, Rng* rng, double* work) {
  const int node_index = tree->AddNode();

  const double n = static_cast<double>(rows->size());
  double sum = 0.0;
  for (size_t r : *rows) sum += y[r];
  const double mean = n > 0 ? sum / n : 0.0;
  *work += n;

  const bool stop =
      depth >= options_.max_depth ||
      rows->size() < 2 * static_cast<size_t>(options_.min_samples_leaf);
  if (!stop && !x.empty()) {
    const size_t d = x[0].size();
    // A handful of random (feature, threshold) probes; keep the best by
    // variance reduction — extra-trees style.
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 1e-12;
    for (int probe = 0; probe < 8; ++probe) {
      const size_t f = static_cast<size_t>(rng->NextBounded(d));
      double lo = 1e300;
      double hi = -1e300;
      for (size_t r : *rows) {
        lo = std::min(lo, x[r][f]);
        hi = std::max(hi, x[r][f]);
      }
      if (hi - lo <= 1e-12) continue;
      const double thr = rng->NextUniform(lo, hi);
      double left_sum = 0.0;
      double left_n = 0.0;
      for (size_t r : *rows) {
        if (x[r][f] <= thr) {
          left_sum += y[r];
          left_n += 1.0;
        }
      }
      *work += 2.0 * n;
      const double right_n = n - left_n;
      if (left_n < options_.min_samples_leaf ||
          right_n < options_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double gain = left_sum * left_sum / left_n +
                          right_sum * right_sum / right_n - sum * sum / n;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = thr;
      }
    }
    if (best_feature >= 0) {
      std::vector<size_t> left_rows;
      std::vector<size_t> right_rows;
      for (size_t r : *rows) {
        (x[r][static_cast<size_t>(best_feature)] <= best_threshold
             ? left_rows
             : right_rows)
            .push_back(r);
      }
      rows->clear();
      const int left =
          BuildNode(x, y, &left_rows, depth + 1, tree, rng, work);
      const int right =
          BuildNode(x, y, &right_rows, depth + 1, tree, rng, work);
      tree->SetSplit(node_index, best_feature, best_threshold, left, right);
      return node_index;
    }
  }
  tree->leaf(node_index)[0] = mean;
  return node_index;
}

RfSurrogate::Prediction RfSurrogate::Predict(
    const std::vector<double>& x) const {
  Prediction out;
  if (trees_.empty()) return out;
  double sum = 0.0;
  double sum_sq = 0.0;
  double walk_flops = 0.0;  // Surrogate predicts are not charged.
  for (const FlatTree& tree : trees_) {
    const double v = tree.Walk(x.data(), &walk_flops)[0];
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(trees_.size());
  out.mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - out.mean * out.mean);
  out.stddev = std::sqrt(var);
  return out;
}

double RfSurrogate::ExpectedImprovement(const std::vector<double>& x,
                                        double best_so_far) const {
  const Prediction p = Predict(x);
  if (p.stddev < 1e-12) return std::max(0.0, p.mean - best_so_far);
  const double z = (p.mean - best_so_far) / p.stddev;
  // EI = sigma * (z * Phi(z) + phi(z)).
  const double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  return p.stddev * (z * cdf + phi);
}

}  // namespace green
