#include "green/search/rf_surrogate.h"

#include <algorithm>
#include <cmath>

#include "green/common/logging.h"

namespace green {

// Determinism contract (pinned by BayesOptTest.TrajectoryMatchesPinnedDigest
// and the snapshots): every node sees its rows in bootstrap order (the
// split partition is stable on both sides), so `sum`, each probe's
// `left_sum` and `mean` add the same targets in the same order; the probes
// draw NextBounded(d), then NextUniform only for a non-constant column,
// and `work` grows by n per node and 2n per drawn threshold.
double RfSurrogate::Fit(const std::vector<std::vector<double>>& x,
                        const std::vector<double>& y) {
  n_ = 0;
  d_ = 0;
  if (x.empty() || x.size() != y.size() || x[0].empty() ||
      !CheckTreeIndexRange(x.size(), x.size()).ok()) {
    return 0.0;
  }
  const size_t n = x.size();
  const size_t d = x[0].size();
  for (const std::vector<double>& row : x) {
    if (row.size() != d) return 0.0;
  }
  n_ = n;
  d_ = d;
  cols_.resize(d * n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < d; ++f) cols_[f * n + r] = x[r][f];
  }
  rows_.resize(n);
  node_y_.resize(n);
  right_rows_.resize(n);
  right_y_.resize(n);
  column_.resize(n);

  trees_.resize(static_cast<size_t>(std::max(0, options_.num_trees)));
  Rng rng(options_.seed);
  double work = 0.0;
  for (FlatTree& tree : trees_) {
    Rng tree_rng = rng.Fork();
    // Bootstrap sample.
    for (size_t i = 0; i < n; ++i) {
      rows_[i] = static_cast<uint32_t>(tree_rng.NextBounded(n));
      node_y_[i] = y[rows_[i]];
    }
    tree.Clear();
    BuildNode(0, n, 0, &tree, &tree_rng, &work);
  }
  return work;
}

int RfSurrogate::BuildNode(size_t lo, size_t hi, int depth, FlatTree* tree,
                           Rng* rng, double* work) {
  const int node_index = tree->AddNode();
  const size_t len = hi - lo;
  uint32_t* rows = rows_.data() + lo;
  double* ys = node_y_.data() + lo;

  const double n = static_cast<double>(len);
  double sum = 0.0;
  for (size_t i = 0; i < len; ++i) sum += ys[i];
  const double mean = n > 0 ? sum / n : 0.0;
  *work += n;

  const bool stop =
      depth >= options_.max_depth ||
      len < 2 * static_cast<size_t>(options_.min_samples_leaf);
  if (!stop) {
    // A handful of random (feature, threshold) probes; keep the best by
    // variance reduction — extra-trees style.
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 1e-12;
    double* column = column_.data();
    for (int probe = 0; probe < 8; ++probe) {
      const size_t f = static_cast<size_t>(rng->NextBounded(d_));
      const double* col = cols_.data() + f * n_;
      double lo_value = 1e300;
      double hi_value = -1e300;
      for (size_t i = 0; i < len; ++i) {
        const double v = col[rows[i]];
        column[i] = v;
        lo_value = std::min(lo_value, v);
        hi_value = std::max(hi_value, v);
      }
      if (hi_value - lo_value <= 1e-12) continue;
      const double thr = rng->NextUniform(lo_value, hi_value);
      double left_sum = 0.0;
      double left_n = 0.0;
      for (size_t i = 0; i < len; ++i) {
        if (column[i] <= thr) {
          left_sum += ys[i];
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
      // Stable in-place partition: left rows compact forward (the write
      // index never passes the read index), right rows stage through
      // scratch and are copied back after them.
      const double* col =
          cols_.data() + static_cast<size_t>(best_feature) * n_;
      size_t nl = 0;
      size_t nr = 0;
      for (size_t i = 0; i < len; ++i) {
        const uint32_t r = rows[i];
        const double yr = ys[i];
        if (col[r] <= best_threshold) {
          rows[nl] = r;
          ys[nl] = yr;
          ++nl;
        } else {
          right_rows_[nr] = r;
          right_y_[nr] = yr;
          ++nr;
        }
      }
      std::copy_n(right_rows_.begin(), nr, rows + nl);
      std::copy_n(right_y_.begin(), nr, ys + nl);
      const int left = BuildNode(lo, lo + nl, depth + 1, tree, rng, work);
      const int right = BuildNode(lo + nl, hi, depth + 1, tree, rng, work);
      tree->SetSplit(node_index, best_feature, best_threshold, left, right);
      return node_index;
    }
  }
  tree->leaf(node_index)[0] = mean;
  return node_index;
}

RfSurrogate::Prediction RfSurrogate::PredictPoint(const double* x,
                                                  size_t dim) const {
  Prediction out;
  if (!fitted()) return out;
  GREEN_CHECK(dim == d_);
  double sum = 0.0;
  double sum_sq = 0.0;
  double walk_flops = 0.0;  // Surrogate predicts are not charged.
  for (const FlatTree& tree : trees_) {
    const double v = tree.Walk(x, &walk_flops)[0];
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(trees_.size());
  out.mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - out.mean * out.mean);
  out.stddev = std::sqrt(var);
  return out;
}

RfSurrogate::Prediction RfSurrogate::Predict(
    const std::vector<double>& x) const {
  return PredictPoint(x.data(), x.size());
}

double RfSurrogate::ExpectedImprovement(const std::vector<double>& x,
                                        double best_so_far) const {
  double ei = 0.0;
  ExpectedImprovementBatch(x.data(), 1, x.size(), best_so_far, &ei);
  return ei;
}

void RfSurrogate::ExpectedImprovementBatch(const double* points,
                                           size_t count, size_t dim,
                                           double best_so_far,
                                           double* out) const {
  for (size_t i = 0; i < count; ++i) {
    const Prediction p = PredictPoint(points + i * dim, dim);
    if (p.stddev < 1e-12) {
      out[i] = std::max(0.0, p.mean - best_so_far);
      continue;
    }
    const double z = (p.mean - best_so_far) / p.stddev;
    // EI = sigma * (z * Phi(z) + phi(z)).
    const double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
    const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    out[i] = p.stddev * (z * cdf + phi);
  }
}

}  // namespace green
