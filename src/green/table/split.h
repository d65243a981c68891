#ifndef GREEN_TABLE_SPLIT_H_
#define GREEN_TABLE_SPLIT_H_

#include <vector>

#include "green/common/rng.h"
#include "green/table/dataset.h"

namespace green {

/// A train/test partition by row index.
struct TrainTestIndices {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Stratified split: each class contributes `train_fraction` of its rows
/// to the train side (rounded; every non-empty class keeps at least one
/// training row when possible). The paper uses 66/34 for its outer split.
TrainTestIndices StratifiedSplit(const Dataset& data, double train_fraction,
                                 Rng* rng);

/// Plain (non-stratified) shuffled split with the same rounding policy as
/// StratifiedSplit applied to the whole dataset at once. The splitter for
/// regression tasks, where labels carry no class structure.
TrainTestIndices PlainSplit(const Dataset& data, double train_fraction,
                            Rng* rng);

/// Stratified k-fold cross-validation indices; fold f's test rows are
/// `folds[f]`, its training rows are everything else. Used by TPOT
/// (5-fold CV) and AutoGluon bagging.
std::vector<std::vector<size_t>> StratifiedKFold(const Dataset& data,
                                                 int k, Rng* rng);

/// Plain shuffled k-fold (round-robin assignment after one shuffle).
std::vector<std::vector<size_t>> PlainKFold(const Dataset& data, int k,
                                            Rng* rng);

/// Task dispatch: stratified for classification, plain for regression.
/// Classification behavior (including RNG consumption) is identical to
/// calling StratifiedSplit / StratifiedKFold directly.
TrainTestIndices SplitForTask(const Dataset& data, double train_fraction,
                              Rng* rng);
std::vector<std::vector<size_t>> KFoldForTask(const Dataset& data, int k,
                                              Rng* rng);

/// One fit/val view pair per fold: fold f validates on `folds[f]` and
/// fits on every other fold's rows, ascending. Built once per search so
/// every evaluation reuses the same views and the transform cache keys
/// on the same storage + row index throughout (TPOT's CV, AutoGluon's
/// bagging).
struct FoldViews {
  std::vector<Dataset> fit;
  std::vector<Dataset> val;
};
FoldViews MakeFoldViews(const Dataset& data,
                        const std::vector<std::vector<size_t>>& folds);

/// Draws up to `per_class` rows per class (without replacement); the
/// incremental-training strategy of CAML grows samples this way.
std::vector<size_t> SamplePerClass(const Dataset& data, int per_class,
                                   Rng* rng);

/// Uniform sample of up to `n` rows without replacement.
std::vector<size_t> SampleRows(const Dataset& data, size_t n, Rng* rng);

/// Materializes a partition into datasets.
struct TrainTestData {
  Dataset train;
  Dataset test;
};
TrainTestData Materialize(const Dataset& data,
                          const TrainTestIndices& indices);

}  // namespace green

#endif  // GREEN_TABLE_SPLIT_H_
