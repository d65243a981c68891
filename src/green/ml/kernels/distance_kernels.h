#ifndef GREEN_ML_KERNELS_DISTANCE_KERNELS_H_
#define GREEN_ML_KERNELS_DISTANCE_KERNELS_H_

#include <cstddef>

namespace green {

/// Squared Euclidean distances from one query to every column of a
/// column-major d x n matrix (`cols[j * n + r]` is feature j of point r).
/// The loop nest is j-outer / r-inner over cache-sized row blocks with an
/// unrolled accumulate, so the inner trip vectorizes over contiguous
/// memory — but each distance still receives its per-feature adds in
/// j-ascending order, so every output double equals the plain row-major
/// `for j: s += diff * diff`.
void SquaredDistancesColMajor(const double* cols, size_t n, size_t d,
                              const double* query, double* out);

/// Dense tanh projection: out[i] = tanh(dot(w_i, x)) for the h rows of
/// the row-major h x d weight matrix, with per-output adds j-ascending.
void ProjectTanh(const double* w, size_t h, size_t d, const double* x,
                 double* out);

}  // namespace green

#endif  // GREEN_ML_KERNELS_DISTANCE_KERNELS_H_
