#include "green/common/mathutil.h"

#include <algorithm>
#include <cmath>

namespace green {

void SoftmaxInPlace(std::vector<double>* v) {
  if (v->empty()) return;
  const double mx = *std::max_element(v->begin(), v->end());
  double sum = 0.0;
  for (double& x : *v) {
    x = std::exp(x - mx);
    sum += x;
  }
  if (sum <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(v->size());
    for (double& x : *v) x = uniform;
    return;
  }
  for (double& x : *v) x /= sum;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + mid - 1, v.begin() + mid);
  return 0.5 * (v[mid - 1] + hi);
}

double Quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, p);
}

double QuantileSorted(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  p = Clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // An exact rank is its value: an infinite v[hi] would make inf * 0 NaN.
  if (frac == 0.0) return v[lo];
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double Sigmoid(double x) {
  x = Clamp(x, -40.0, 40.0);
  return 1.0 / (1.0 + std::exp(-x));
}

size_t ArgMax(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return static_cast<size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

}  // namespace green
