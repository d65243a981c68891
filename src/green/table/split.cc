#include "green/table/split.h"

#include <algorithm>

namespace green {

namespace {

/// Row indices grouped per class, each group shuffled.
std::vector<std::vector<size_t>> GroupByClass(const Dataset& data,
                                              Rng* rng) {
  std::vector<std::vector<size_t>> by_class(
      static_cast<size_t>(data.num_classes()));
  for (size_t r = 0; r < data.num_rows(); ++r) {
    by_class[static_cast<size_t>(data.Label(r))].push_back(r);
  }
  for (auto& group : by_class) rng->Shuffle(&group);
  return by_class;
}

/// All row indices in one shuffled group.
std::vector<size_t> ShuffledRows(const Dataset& data, Rng* rng) {
  std::vector<size_t> rows(data.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  rng->Shuffle(&rows);
  return rows;
}

/// Partitions one shuffled group with StratifiedSplit's rounding policy.
void SplitGroup(const std::vector<size_t>& group, double train_fraction,
                TrainTestIndices* out) {
  if (group.empty()) return;
  size_t n_train = static_cast<size_t>(
      static_cast<double>(group.size()) * train_fraction + 0.5);
  if (n_train == 0 && group.size() > 1) n_train = 1;
  if (n_train >= group.size()) n_train = group.size() - 1;
  if (group.size() == 1) n_train = 1;  // Lone row goes to train.
  for (size_t i = 0; i < group.size(); ++i) {
    (i < n_train ? out->train : out->test).push_back(group[i]);
  }
}

}  // namespace

TrainTestIndices StratifiedSplit(const Dataset& data, double train_fraction,
                                 Rng* rng) {
  TrainTestIndices out;
  for (auto& group : GroupByClass(data, rng)) {
    SplitGroup(group, train_fraction, &out);
  }
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  return out;
}

TrainTestIndices PlainSplit(const Dataset& data, double train_fraction,
                            Rng* rng) {
  TrainTestIndices out;
  SplitGroup(ShuffledRows(data, rng), train_fraction, &out);
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  return out;
}

std::vector<std::vector<size_t>> StratifiedKFold(const Dataset& data,
                                                 int k, Rng* rng) {
  std::vector<std::vector<size_t>> folds(static_cast<size_t>(k));
  for (auto& group : GroupByClass(data, rng)) {
    for (size_t i = 0; i < group.size(); ++i) {
      folds[i % static_cast<size_t>(k)].push_back(group[i]);
    }
  }
  for (auto& f : folds) std::sort(f.begin(), f.end());
  return folds;
}

std::vector<std::vector<size_t>> PlainKFold(const Dataset& data, int k,
                                            Rng* rng) {
  std::vector<std::vector<size_t>> folds(static_cast<size_t>(k));
  const std::vector<size_t> rows = ShuffledRows(data, rng);
  for (size_t i = 0; i < rows.size(); ++i) {
    folds[i % static_cast<size_t>(k)].push_back(rows[i]);
  }
  for (auto& f : folds) std::sort(f.begin(), f.end());
  return folds;
}

TrainTestIndices SplitForTask(const Dataset& data, double train_fraction,
                              Rng* rng) {
  return data.task() == TaskType::kRegression
             ? PlainSplit(data, train_fraction, rng)
             : StratifiedSplit(data, train_fraction, rng);
}

std::vector<std::vector<size_t>> KFoldForTask(const Dataset& data, int k,
                                              Rng* rng) {
  return data.task() == TaskType::kRegression
             ? PlainKFold(data, k, rng)
             : StratifiedKFold(data, k, rng);
}

FoldViews MakeFoldViews(const Dataset& data,
                        const std::vector<std::vector<size_t>>& folds) {
  FoldViews views;
  views.fit.reserve(folds.size());
  views.val.reserve(folds.size());
  for (size_t f = 0; f < folds.size(); ++f) {
    std::vector<size_t> fit_rows;
    for (size_t g = 0; g < folds.size(); ++g) {
      if (g == f) continue;
      fit_rows.insert(fit_rows.end(), folds[g].begin(), folds[g].end());
    }
    std::sort(fit_rows.begin(), fit_rows.end());
    views.fit.push_back(data.Subset(fit_rows));
    views.val.push_back(data.Subset(folds[f]));
  }
  return views;
}

std::vector<size_t> SamplePerClass(const Dataset& data, int per_class,
                                   Rng* rng) {
  std::vector<size_t> out;
  for (auto& group : GroupByClass(data, rng)) {
    const size_t take =
        std::min(group.size(), static_cast<size_t>(per_class));
    out.insert(out.end(), group.begin(), group.begin() + take);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> SampleRows(const Dataset& data, size_t n, Rng* rng) {
  std::vector<size_t> all(data.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  rng->Shuffle(&all);
  if (n < all.size()) all.resize(n);
  std::sort(all.begin(), all.end());
  return all;
}

TrainTestData Materialize(const Dataset& data,
                          const TrainTestIndices& indices) {
  return TrainTestData{data.Subset(indices.train),
                       data.Subset(indices.test)};
}

}  // namespace green
