#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "green/search/bayes_opt.h"
#include "green/ml/metrics.h"
#include "green/search/caruana.h"
#include "green/search/kmeans.h"
#include "green/search/median_pruner.h"
#include "green/search/nsga2.h"
#include "green/search/param_space.h"
#include "green/search/rf_surrogate.h"
#include "green/search/successive_halving.h"
#include "bit_hash.h"

namespace green {
namespace {

// --- ParamSpace ---

TEST(ParamSpaceTest, DecodeLinearDouble) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", -1.0, 3.0));
  auto p = space.Decode({0.5});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->values.at("x"), 1.0, 1e-12);
}

TEST(ParamSpaceTest, DecodeLogDouble) {
  ParamSpace space;
  space.Add(ParamSpec::Double("lr", 0.01, 1.0, /*log_scale=*/true));
  auto lo = space.Decode({0.0});
  auto mid = space.Decode({0.5});
  auto hi = space.Decode({1.0});
  ASSERT_TRUE(lo.ok() && mid.ok() && hi.ok());
  EXPECT_NEAR(lo->values.at("lr"), 0.01, 1e-9);
  EXPECT_NEAR(mid->values.at("lr"), 0.1, 1e-9);
  EXPECT_NEAR(hi->values.at("lr"), 1.0, 1e-9);
}

TEST(ParamSpaceTest, DecodeIntInclusive) {
  ParamSpace space;
  space.Add(ParamSpec::Int("n", 1, 4));
  std::set<double> seen;
  Rng rng(1);
  for (int i = 0; i < 400; ++i) {
    seen.insert(space.Sample(&rng).values.at("n"));
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 1.0);
  EXPECT_EQ(*seen.rbegin(), 4.0);
}

TEST(ParamSpaceTest, DecodeCategorical) {
  ParamSpace space;
  space.Add(ParamSpec::Categorical("m", {"a", "b", "c"}));
  auto lo = space.Decode({0.0});
  auto hi = space.Decode({0.999});
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_EQ(lo->choices.at("m"), "a");
  EXPECT_EQ(hi->choices.at("m"), "c");
}

TEST(ParamSpaceTest, DimensionMismatchRejected) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", 0, 1));
  EXPECT_FALSE(space.Decode({0.1, 0.2}).ok());
}

TEST(ParamSpaceTest, SampleClampsOutOfRangeUnit) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", 0.0, 1.0));
  auto p = space.Decode({1.7});
  ASSERT_TRUE(p.ok());
  EXPECT_LE(p->values.at("x"), 1.0);
}

// --- RfSurrogate ---

TEST(RfSurrogateTest, FitsSimpleFunction) {
  RfSurrogate::Options options;
  options.num_trees = 32;
  RfSurrogate surrogate(options);
  Rng rng(5);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextDouble();
    xs.push_back({x});
    ys.push_back(x * x);
  }
  EXPECT_GT(surrogate.Fit(xs, ys), 0.0);
  ASSERT_TRUE(surrogate.fitted());
  EXPECT_NEAR(surrogate.Predict({0.9}).mean, 0.81, 0.15);
  EXPECT_NEAR(surrogate.Predict({0.1}).mean, 0.01, 0.15);
}

TEST(RfSurrogateTest, UncertaintyNonNegative) {
  RfSurrogate surrogate(RfSurrogate::Options{});
  std::vector<std::vector<double>> xs = {{0.0}, {1.0}};
  std::vector<double> ys = {0.0, 1.0};
  surrogate.Fit(xs, ys);
  EXPECT_GE(surrogate.Predict({0.5}).stddev, 0.0);
}

TEST(RfSurrogateTest, EmptyFitHandled) {
  RfSurrogate surrogate(RfSurrogate::Options{});
  EXPECT_EQ(surrogate.Fit({}, {}), 0.0);
  EXPECT_FALSE(surrogate.fitted());
  EXPECT_EQ(surrogate.Predict({0.5}).mean, 0.0);
}

TEST(RfSurrogateTest, ExpectedImprovementPositiveWhereBetter) {
  RfSurrogate surrogate(RfSurrogate::Options{});
  Rng rng(7);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextDouble();
    xs.push_back({x});
    ys.push_back(x);  // Higher x is better.
  }
  surrogate.Fit(xs, ys);
  EXPECT_GT(surrogate.ExpectedImprovement({0.95}, 0.5),
            surrogate.ExpectedImprovement({0.05}, 0.5));
}

// `n` observations of width `d` drawn from `seed`, with a smooth target.
void MakeObservations(int n, int d, uint64_t seed,
                      std::vector<std::vector<double>>* xs,
                      std::vector<double>* ys) {
  Rng rng(seed);
  xs->clear();
  ys->clear();
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(static_cast<size_t>(d));
    for (double& v : x) v = rng.NextDouble();
    ys->push_back(x[0] * x[1] - 0.5 * x[d - 1]);
    xs->push_back(std::move(x));
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(RfSurrogateTest, RaggedObservationsDoNotFit) {
  RfSurrogate surrogate(RfSurrogate::Options{});
  EXPECT_EQ(surrogate.Fit({{0.1, 0.2}, {0.3}, {0.5, 0.6}}, {1.0, 2.0, 3.0}),
            0.0);
  EXPECT_FALSE(surrogate.fitted());
  EXPECT_EQ(surrogate.Fit({{0.1}, {0.3, 0.4}}, {1.0, 2.0}), 0.0);
  EXPECT_FALSE(surrogate.fitted());
  EXPECT_EQ(surrogate.Fit({{}, {}, {}}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_FALSE(surrogate.fitted());
  EXPECT_EQ(surrogate.Fit({{0.1}, {0.3}}, {1.0}), 0.0);
  EXPECT_FALSE(surrogate.fitted());

  // A failed refit unfits a fitted surrogate.
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  MakeObservations(20, 3, 4, &xs, &ys);
  EXPECT_GT(surrogate.Fit(xs, ys), 0.0);
  ASSERT_TRUE(surrogate.fitted());
  xs[7].pop_back();
  EXPECT_EQ(surrogate.Fit(xs, ys), 0.0);
  EXPECT_FALSE(surrogate.fitted());
  EXPECT_EQ(surrogate.Predict({0.5, 0.5, 0.5}).mean, 0.0);
}

TEST(RfSurrogateTest, BatchRejectsWidthMismatch) {
  RfSurrogate surrogate(RfSurrogate::Options{});
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  MakeObservations(20, 3, 4, &xs, &ys);
  ASSERT_GT(surrogate.Fit(xs, ys), 0.0);
  const std::vector<double> points(4, 0.5);
  double out[2] = {0.0, 0.0};
  EXPECT_DEATH(surrogate.ExpectedImprovementBatch(points.data(), 2, 2, 0.0,
                                                  out),
               "CHECK failed");
}

TEST(RfSurrogateTest, BatchEiEqualsPointEi) {
  RfSurrogate surrogate(RfSurrogate::Options{});
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  MakeObservations(30, 5, 8, &xs, &ys);
  ASSERT_GT(surrogate.Fit(xs, ys), 0.0);
  const size_t count = 64;
  const size_t dim = 5;
  Rng rng(9);
  std::vector<double> points(count * dim);
  for (double& u : points) u = rng.NextDouble();
  const double best = *std::max_element(ys.begin(), ys.end());
  std::vector<double> batch(count);
  surrogate.ExpectedImprovementBatch(points.data(), count, dim, best,
                                     batch.data());
  int positive = 0;
  for (size_t i = 0; i < count; ++i) {
    const std::vector<double> point(points.begin() + i * dim,
                                    points.begin() + (i + 1) * dim);
    EXPECT_EQ(Bits(batch[i]), Bits(surrogate.ExpectedImprovement(point, best)))
        << "point " << i;
    if (batch[i] > 0.0) ++positive;
  }
  EXPECT_GT(positive, 0);
}

TEST(RfSurrogateTest, RefitMatchesFreshSurrogate) {
  // One object refits on 40, 12 and again 40 observations, reusing its
  // scratch and tree capacity; each fit must equal a fresh surrogate's.
  RfSurrogate reused(RfSurrogate::Options{});
  Rng probe_rng(13);
  std::vector<std::vector<double>> probes(32, std::vector<double>(4));
  for (auto& probe : probes) {
    for (double& v : probe) v = probe_rng.NextDouble();
  }
  const std::pair<int, uint64_t> fits[] = {{40, 21}, {12, 22}, {40, 23}};
  for (const auto& [n, seed] : fits) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    MakeObservations(n, 4, seed, &xs, &ys);
    RfSurrogate fresh(RfSurrogate::Options{});
    const double fresh_work = fresh.Fit(xs, ys);
    EXPECT_EQ(Bits(reused.Fit(xs, ys)), Bits(fresh_work)) << "n=" << n;
    for (const auto& probe : probes) {
      const RfSurrogate::Prediction a = reused.Predict(probe);
      const RfSurrogate::Prediction b = fresh.Predict(probe);
      EXPECT_EQ(Bits(a.mean), Bits(b.mean)) << "n=" << n;
      EXPECT_EQ(Bits(a.stddev), Bits(b.stddev)) << "n=" << n;
    }
  }
}

// --- BayesOpt ---

TEST(BayesOptTest, ImprovesOverInitialRandomPhase) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", 0.0, 1.0));
  space.Add(ParamSpec::Double("y", 0.0, 1.0));
  BayesOpt::Options options;
  options.num_initial_random = 8;
  options.seed = 11;
  BayesOpt optimizer(&space, options);
  auto objective = [](const ParamPoint& p) {
    const double x = p.values.at("x");
    const double y = p.values.at("y");
    return 2.0 - (x - 0.3) * (x - 0.3) - (y - 0.8) * (y - 0.8);
  };
  double best_after_init = -1e300;
  for (int i = 0; i < 60; ++i) {
    const ParamPoint p = optimizer.Ask();
    optimizer.Tell(p, objective(p));
    if (i == options.num_initial_random - 1) {
      best_after_init = optimizer.best_score();
    }
  }
  EXPECT_GE(optimizer.best_score(), best_after_init);
  EXPECT_GT(optimizer.best_score(), 1.95);
  EXPECT_EQ(optimizer.num_observations(), 60);
}

// Pins every asked point (unit coordinates and decoded values) and the
// work of every tell over a mixed space. The digest was computed with the
// per-candidate Ask and the row-vector surrogate builder; any change to
// RNG draws, split choices, summation order or candidate choice moves it.
TEST(BayesOptTest, TrajectoryMatchesPinnedDigest) {
  ParamSpace space;
  space.Add(ParamSpec::Double("lin", -1.0, 3.0));
  space.Add(ParamSpec::Double("lr", 1e-3, 1.0, /*log_scale=*/true));
  space.Add(ParamSpec::Int("depth", 1, 20));
  space.Add(ParamSpec::Categorical("model", {"tree", "forest", "knn"}));
  BayesOpt::Options options;
  options.num_initial_random = 5;
  options.seed = 2024;
  BayesOpt optimizer(&space, options);
  BitHash hash;
  for (int i = 0; i < 60; ++i) {
    const ParamPoint p = optimizer.Ask();
    for (double u : p.unit) hash.Add(u);
    for (const auto& [name, value] : p.values) {
      hash.Add(name);
      hash.Add(value);
    }
    for (const auto& [name, choice] : p.choices) {
      hash.Add(name);
      hash.Add(choice);
    }
    const double lin = p.values.at("lin");
    const double lr = p.values.at("lr");
    const double score = -(lin - 1.2) * (lin - 1.2) -
                         10.0 * (lr - 0.05) * (lr - 0.05) -
                         0.01 * std::abs(p.values.at("depth") - 7.0) +
                         (p.choices.at("model") == "forest" ? 0.3 : 0.0);
    hash.Add(optimizer.Tell(p, score));
  }
  hash.Add(optimizer.best_score());
  EXPECT_EQ(hash.value(), 0xcec0b8e80368a804ull);
}

TEST(BayesOptTest, DeterministicGivenSeed) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", 0.0, 1.0));
  BayesOpt::Options options;
  options.seed = 77;
  BayesOpt a(&space, options);
  BayesOpt b(&space, options);
  for (int i = 0; i < 20; ++i) {
    const ParamPoint pa = a.Ask();
    const ParamPoint pb = b.Ask();
    ASSERT_EQ(pa.unit, pb.unit);
    a.Tell(pa, pa.unit[0]);
    b.Tell(pb, pb.unit[0]);
  }
}

// --- SuccessiveHalving ---

TEST(SuccessiveHalvingTest, KeepsBestArm) {
  // Arm quality is its index; evaluation is noisy but order-preserving.
  SuccessiveHalvingOptions options;
  options.num_rungs = 3;
  options.eta = 2.0;
  auto result = SuccessiveHalving(
      8, options,
      [](int arm, int rung, double fraction) -> Result<double> {
        return static_cast<double>(arm) + 0.1 * fraction;
      });
  EXPECT_EQ(result.best_arm, 7);
  EXPECT_GT(result.evaluations, 8);  // More than one rung ran.
}

TEST(SuccessiveHalvingTest, BudgetFractionGrows) {
  // Track the budget fraction of the winning arm (3), which survives
  // every rung; it must grow strictly and reach 1.0 at the top rung.
  std::vector<double> fractions;
  SuccessiveHalvingOptions options;
  options.num_rungs = 3;
  options.min_fraction = 0.111;
  SuccessiveHalving(4, options,
                    [&](int arm, int rung, double f) -> Result<double> {
                      if (arm == 3) fractions.push_back(f);
                      return static_cast<double>(arm);
                    });
  ASSERT_GE(fractions.size(), 2u);
  for (size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
}

TEST(SuccessiveHalvingTest, ErrorsEliminateArms) {
  SuccessiveHalvingOptions options;
  options.num_rungs = 2;
  auto result = SuccessiveHalving(
      4, options, [](int arm, int rung, double f) -> Result<double> {
        if (arm == 3) return Status::Internal("always fails");
        return static_cast<double>(arm);
      });
  EXPECT_EQ(result.best_arm, 2);
}

TEST(SuccessiveHalvingTest, StopsOnBudget) {
  int evals = 0;
  SuccessiveHalvingOptions options;
  options.num_rungs = 4;
  auto result = SuccessiveHalving(
      16, options,
      [&](int arm, int rung, double f) -> Result<double> {
        ++evals;
        return static_cast<double>(arm);
      },
      [&]() { return evals >= 5; });
  EXPECT_LE(evals, 6);
  EXPECT_GE(result.best_arm, 0);  // Still returns a provisional best.
}

TEST(SuccessiveHalvingTest, ZeroArms) {
  auto result = SuccessiveHalving(
      0, SuccessiveHalvingOptions{},
      [](int, int, double) -> Result<double> { return 0.0; });
  EXPECT_EQ(result.best_arm, -1);
}

// --- NSGA-II ---

TEST(Nsga2Test, NonDominatedSortRanks) {
  std::vector<Nsga2Individual> pop(3);
  pop[0].objectives = {1.0, 1.0};  // Dominates both others.
  pop[1].objectives = {0.5, 0.9};
  pop[2].objectives = {0.4, 0.4};  // Dominated by both others.
  auto fronts = NonDominatedSort(&pop);
  EXPECT_EQ(pop[0].rank, 0);
  EXPECT_EQ(pop[1].rank, 1);
  EXPECT_EQ(pop[2].rank, 2);
  EXPECT_EQ(fronts.size(), 3u);
}

TEST(Nsga2Test, IncomparableShareFront) {
  std::vector<Nsga2Individual> pop(2);
  pop[0].objectives = {1.0, 0.0};
  pop[1].objectives = {0.0, 1.0};
  auto fronts = NonDominatedSort(&pop);
  EXPECT_EQ(fronts.size(), 1u);
  EXPECT_EQ(pop[0].rank, 0);
  EXPECT_EQ(pop[1].rank, 0);
}

TEST(Nsga2Test, CrowdingBoundaryInfinite) {
  std::vector<Nsga2Individual> pop(3);
  pop[0].objectives = {0.0, 1.0};
  pop[1].objectives = {0.5, 0.5};
  pop[2].objectives = {1.0, 0.0};
  AssignCrowdingDistance({0, 1, 2}, &pop);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[2].crowding));
  EXPECT_TRUE(std::isfinite(pop[1].crowding));
}

TEST(Nsga2Test, OptimizesTwoObjectives) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", 0.0, 1.0));
  Nsga2Options options;
  options.population_size = 12;
  options.generations = 8;
  options.seed = 13;
  // Classic trade-off: f1 = 1-x, f2 = x. The front is the whole segment;
  // evolution should cover both ends.
  auto result =
      Nsga2(space, options,
            [](const ParamPoint& p) -> Result<std::vector<double>> {
              const double x = p.values.at("x");
              return std::vector<double>{1.0 - x, x};
            });
  ASSERT_FALSE(result.population.empty());
  double min_x = 1.0;
  double max_x = 0.0;
  for (const auto& ind : result.population) {
    if (ind.rank != 0) continue;
    min_x = std::min(min_x, ind.unit[0]);
    max_x = std::max(max_x, ind.unit[0]);
  }
  EXPECT_LT(min_x, 0.3);
  EXPECT_GT(max_x, 0.7);
}

TEST(Nsga2Test, StopsOnBudget) {
  ParamSpace space;
  space.Add(ParamSpec::Double("x", 0.0, 1.0));
  Nsga2Options options;
  options.population_size = 4;
  options.generations = 100;
  int evals = 0;
  auto result = Nsga2(
      space, options,
      [&](const ParamPoint& p) -> Result<std::vector<double>> {
        ++evals;
        return std::vector<double>{p.values.at("x")};
      },
      [&]() { return evals >= 10; });
  EXPECT_LE(evals, 11);
}

// --- Caruana ---

TEST(CaruanaTest, PrefersAccurateMember) {
  const std::vector<int> labels = {0, 0, 1, 1};
  ProbaMatrix good = {{0.9, 0.1}, {0.8, 0.2}, {0.1, 0.9}, {0.2, 0.8}};
  ProbaMatrix bad = {{0.1, 0.9}, {0.2, 0.8}, {0.9, 0.1}, {0.8, 0.2}};
  auto result = CaruanaEnsembleSelection({good, bad}, labels, 2,
                                         CaruanaOptions{});
  EXPECT_GT(result.weights[0], result.weights[1]);
  EXPECT_NEAR(result.weights[0] + result.weights[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(result.validation_score, 1.0);
  EXPECT_GT(result.work, 0.0);
}

TEST(CaruanaTest, EnsembleAtLeastAsGoodAsBestSingle) {
  Rng rng(17);
  const int n = 60;
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i % 2;
  // Three noisy members with different error patterns.
  std::vector<ProbaMatrix> library;
  double best_single = 0.0;
  for (int m = 0; m < 3; ++m) {
    ProbaMatrix proba(n);
    std::vector<int> preds(n);
    for (int i = 0; i < n; ++i) {
      const bool correct = rng.NextBool(0.75);
      const int label = correct ? labels[i] : 1 - labels[i];
      proba[i] = label == 0 ? std::vector<double>{0.8, 0.2}
                            : std::vector<double>{0.2, 0.8};
      preds[i] = label;
    }
    best_single =
        std::max(best_single, BalancedAccuracy(labels, preds, 2));
    library.push_back(std::move(proba));
  }
  auto result =
      CaruanaEnsembleSelection(library, labels, 2, CaruanaOptions{});
  EXPECT_GE(result.validation_score, best_single - 1e-9);
}

TEST(CaruanaTest, EmptyLibrary) {
  auto result = CaruanaEnsembleSelection({}, {}, 2, CaruanaOptions{});
  EXPECT_TRUE(result.weights.empty());
}

// --- KMeans ---

TEST(KMeansTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> points;
  Rng rng(19);
  for (int i = 0; i < 30; ++i) {
    points.push_back({rng.NextGaussian() * 0.1, rng.NextGaussian() * 0.1});
    points.push_back(
        {10.0 + rng.NextGaussian() * 0.1, rng.NextGaussian() * 0.1});
  }
  KMeansOptions options;
  options.k = 2;
  auto result = KMeans(points, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->centroids.size(), 2u);
  // One centroid near x=0, the other near x=10.
  const double x0 = result->centroids[0][0];
  const double x1 = result->centroids[1][0];
  EXPECT_NEAR(std::min(x0, x1), 0.0, 0.5);
  EXPECT_NEAR(std::max(x0, x1), 10.0, 0.5);
  // Points in the same physical cluster share the assignment.
  EXPECT_EQ(result->assignment[0], result->assignment[2]);
  EXPECT_NE(result->assignment[0], result->assignment[1]);
}

TEST(KMeansTest, KLargerThanPoints) {
  std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  KMeansOptions options;
  options.k = 10;
  auto result = KMeans(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->centroids.size(), 2u);
}

TEST(KMeansTest, RejectsBadInput) {
  EXPECT_FALSE(KMeans({}, KMeansOptions{}).ok());
  KMeansOptions bad;
  bad.k = 0;
  EXPECT_FALSE(KMeans({{1.0}}, bad).ok());
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, KMeansOptions{}).ok());
}

TEST(KMeansTest, ClosestPointPerCentroidDedups) {
  std::vector<std::vector<double>> points = {{0.0}, {0.1}, {10.0}};
  KMeansOptions options;
  options.k = 2;
  auto result = KMeans(points, options);
  ASSERT_TRUE(result.ok());
  const auto representatives = ClosestPointPerCentroid(points, *result);
  EXPECT_GE(representatives.size(), 1u);
  EXPECT_LE(representatives.size(), 2u);
  std::set<size_t> unique(representatives.begin(), representatives.end());
  EXPECT_EQ(unique.size(), representatives.size());
}

TEST(KMeansTest, InertiaDecreasesWithK) {
  std::vector<std::vector<double>> points;
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.NextDouble() * 10, rng.NextDouble() * 10});
  }
  double prev = 1e300;
  for (int k = 1; k <= 8; k *= 2) {
    KMeansOptions options;
    options.k = k;
    auto result = KMeans(points, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->inertia, prev + 1e-9);
    prev = result->inertia;
  }
}

// --- MedianPruner ---

TEST(MedianPrunerTest, NoPruningBeforeMinTrials) {
  MedianPruner pruner;
  EXPECT_FALSE(pruner.ShouldPrune(0, -100.0));
  pruner.ReportIntermediate(0, 1.0);
  pruner.ReportIntermediate(0, 2.0);
  EXPECT_FALSE(pruner.ShouldPrune(0, -100.0));  // Only 2 < min_trials.
}

TEST(MedianPrunerTest, PrunesBelowMedian) {
  MedianPruner pruner;
  for (double v : {1.0, 2.0, 3.0}) pruner.ReportIntermediate(0, v);
  EXPECT_TRUE(pruner.ShouldPrune(0, 1.5));   // Below median 2.
  EXPECT_FALSE(pruner.ShouldPrune(0, 2.5));  // Above median.
}

TEST(MedianPrunerTest, StepsIndependent) {
  MedianPruner pruner;
  for (double v : {10.0, 20.0, 30.0}) pruner.ReportIntermediate(1, v);
  EXPECT_FALSE(pruner.ShouldPrune(0, 0.0));  // Step 0 has no history.
  EXPECT_TRUE(pruner.ShouldPrune(1, 5.0));
}

}  // namespace
}  // namespace green
