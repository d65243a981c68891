#ifndef GREEN_COMMON_MATHUTIL_H_
#define GREEN_COMMON_MATHUTIL_H_

#include <cstddef>
#include <vector>

namespace green {

/// Numerically stable softmax; writes the result in place.
void SoftmaxInPlace(std::vector<double>* v);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Unbiased sample standard deviation; 0 for fewer than two elements.
double StdDev(const std::vector<double>& v);

/// Median (of a copy); 0 for an empty vector.
double Median(std::vector<double> v);

/// p-quantile in [0,1] via linear interpolation (of a copy).
double Quantile(std::vector<double> v, double p);

/// Quantile's interpolation over an already ascending `v`, which it
/// neither copies nor sorts: reading many quantiles of one column costs
/// one sort.
double QuantileSorted(const std::vector<double>& v, double p);

/// Squared Euclidean distance.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// Sigmoid with clamping to avoid overflow.
double Sigmoid(double x);

/// Index of the maximum element; 0 for an empty vector.
size_t ArgMax(const std::vector<double>& v);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

}  // namespace green

#endif  // GREEN_COMMON_MATHUTIL_H_
