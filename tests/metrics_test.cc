#include <gtest/gtest.h>

#include <algorithm>

#include "green/common/rng.h"
#include "green/ml/metrics.h"

namespace green {
namespace {

TEST(BalancedAccuracyTest, EqualsAccuracyWhenBalanced) {
  const std::vector<int> truth = {0, 0, 1, 1};
  const std::vector<int> pred = {0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(BalancedAccuracy(truth, pred, 2), 0.75);
}

TEST(BalancedAccuracyTest, HandlesImbalance) {
  // 90 of class 0, 10 of class 1; predicting all-zero has 50% balanced
  // accuracy regardless of the skew — the reason the paper uses it.
  std::vector<int> truth(100, 0);
  std::fill(truth.begin() + 90, truth.end(), 1);
  const std::vector<int> all_zero(100, 0);
  EXPECT_DOUBLE_EQ(BalancedAccuracy(truth, all_zero, 2), 0.5);
}

TEST(BalancedAccuracyTest, SkipsAbsentClasses) {
  EXPECT_DOUBLE_EQ(BalancedAccuracy({0, 0}, {0, 0}, 3), 1.0);
}

TEST(BalancedAccuracyTest, PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(BalancedAccuracy({0, 1, 2}, {0, 1, 2}, 3), 1.0);
  EXPECT_DOUBLE_EQ(BalancedAccuracy({0, 1, 2}, {1, 2, 0}, 3), 0.0);
}

// --- property sweeps ---

class MetricPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricPropertyTest, MetricsBoundedAndPermutationInvariant) {
  const int k = GetParam();
  Rng rng(static_cast<uint64_t>(k) * 101);
  const size_t n = 200;
  std::vector<int> truth(n);
  std::vector<int> pred(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k)));
    pred[i] = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k)));
  }
  const double bacc = BalancedAccuracy(truth, pred, k);
  EXPECT_GE(bacc, 0.0);
  EXPECT_LE(bacc, 1.0);

  // Shuffling (truth, pred) pairs jointly must not change the metric.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<int> truth2(n);
  std::vector<int> pred2(n);
  for (size_t i = 0; i < n; ++i) {
    truth2[i] = truth[order[i]];
    pred2[i] = pred[order[i]];
  }
  EXPECT_DOUBLE_EQ(BalancedAccuracy(truth2, pred2, k), bacc);

  // Random guessing has expected balanced accuracy ~ 1/k.
  EXPECT_NEAR(bacc, 1.0 / k, 0.15);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, MetricPropertyTest,
                         ::testing::Values(2, 3, 5, 10, 20));

}  // namespace
}  // namespace green
