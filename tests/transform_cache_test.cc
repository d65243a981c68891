// Tests for zero-copy dataset views and the transform cache: CoW
// semantics, pipeline-level cache hits that re-issue the fitted chain's
// charges bit-identically, LRU byte bounding, truncation safety and config
// signatures. Sweep identity with the cache on vs off is a row of
// invariance_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "green/data/synthetic.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/pipeline.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/pca.h"
#include "green/ml/preprocess/scaler.h"
#include "green/ml/transform_cache.h"
#include "green/sim/execution_context.h"
#include "green/table/dataset.h"

namespace green {
namespace {

Dataset TestData(size_t rows, size_t features, int classes,
                 uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.name = "tcache";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = features / 2;
  spec.num_classes = classes;
  spec.seed = seed;
  auto data = GenerateSynthetic(spec);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// --- Dataset views / copy-on-write -----------------------------------

TEST(DatasetViewTest, SubsetIsAnO1StorageView) {
  const Dataset base = TestData(50, 6, 2);
  const Dataset view = base.Subset({3, 1, 4, 1, 40});
  EXPECT_TRUE(view.IsView());
  EXPECT_EQ(view.StorageId(), base.StorageId());
  EXPECT_EQ(view.num_rows(), 5u);
  EXPECT_EQ(view.num_features(), base.num_features());
  for (size_t j = 0; j < base.num_features(); ++j) {
    EXPECT_EQ(view.At(0, j), base.At(3, j));
    EXPECT_EQ(view.At(1, j), base.At(1, j));
    EXPECT_EQ(view.At(3, j), base.At(1, j));
    EXPECT_EQ(view.At(4, j), base.At(40, j));
  }
  EXPECT_EQ(view.Label(4), base.Label(40));
  // Views compose: a subset of a view maps through to the base rows.
  const Dataset nested = view.Subset({4, 0});
  EXPECT_EQ(nested.StorageId(), base.StorageId());
  EXPECT_EQ(nested.At(0, 0), base.At(40, 0));
  EXPECT_EQ(nested.At(1, 0), base.At(3, 0));
}

TEST(DatasetViewTest, MutationCopiesOnWriteAndNeverLeaks) {
  Dataset base = TestData(20, 4, 2);
  Dataset copy = base;
  EXPECT_EQ(copy.StorageId(), base.StorageId());  // Shared until mutated.
  const double before = base.At(0, 0);
  copy.Set(0, 0, before + 100.0);
  EXPECT_NE(copy.StorageId(), base.StorageId());
  EXPECT_EQ(base.At(0, 0), before);
  EXPECT_EQ(copy.At(0, 0), before + 100.0);

  Dataset view = base.Subset({5, 6});
  view.Set(1, 2, -77.0);
  EXPECT_FALSE(view.IsView());  // Collapsed by the write.
  EXPECT_EQ(view.At(1, 2), -77.0);
  EXPECT_NE(base.At(6, 2), -77.0);
}

TEST(DatasetViewTest, MaterializeCollapsesAndRoundTrips) {
  const Dataset base = TestData(30, 5, 3);
  Dataset view = base.Subset({2, 9, 17});
  Dataset dense = view;
  dense.Materialize();
  EXPECT_FALSE(dense.IsView());
  EXPECT_NE(dense.StorageId(), base.StorageId());
  ASSERT_EQ(dense.num_rows(), view.num_rows());
  for (size_t r = 0; r < dense.num_rows(); ++r) {
    EXPECT_EQ(dense.Label(r), view.Label(r));
    for (size_t j = 0; j < dense.num_features(); ++j) {
      EXPECT_EQ(dense.At(r, j), view.At(r, j));
    }
  }
  // Modeled footprint is representation-independent.
  EXPECT_EQ(dense.FeatureBytes(), view.FeatureBytes());
}

TEST(DatasetViewTest, ViewFingerprintSeparatesDistinctViews) {
  const Dataset base = TestData(25, 4, 2);
  EXPECT_NE(base.Subset({1, 2, 3}).ViewFingerprint(),
            base.Subset({3, 2, 1}).ViewFingerprint());
  EXPECT_EQ(base.Subset({1, 2, 3}).ViewFingerprint(),
            base.Subset({1, 2, 3}).ViewFingerprint());
}

// --- Pipeline-level cache behavior -----------------------------------

Pipeline MakePipeline() {
  Pipeline p;
  p.AddTransformer(std::make_unique<MeanModeImputer>());
  p.AddTransformer(std::make_unique<Scaler>(ScalerKind::kStandard));
  DecisionTreeParams params;
  params.max_depth = 4;
  p.SetModel(std::make_unique<DecisionTree>(params));
  return p;
}

TEST(TransformCachePipelineTest, HitIsBitIdenticalAndSkipsRefit) {
  const Dataset base = TestData(120, 6, 2);
  const Dataset train = base.Subset({0,  1,  2,  3,  4,  5,  6,  7,
                                     8,  9,  10, 11, 12, 13, 14, 15,
                                     16, 17, 18, 19, 20, 21, 22, 23});
  const Dataset test = base.Subset({30, 31, 32, 33, 34, 35, 36, 37});
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(64 * 1024 * 1024);

  auto run = [&](TransformCache* c) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model, 1);
    EnergyMeter meter(&model);
    meter.Start(0.0);
    ctx.SetMeter(&meter);
    if (c != nullptr) ctx.SetTransformCache(c);
    Pipeline p = MakePipeline();
    EXPECT_TRUE(p.Fit(train, &ctx).ok());
    auto pred = p.Predict(test, &ctx);
    EXPECT_TRUE(pred.ok());
    return std::make_tuple(ctx.Now(), meter.Stop(ctx.Now()),
                           std::move(pred).value());
  };

  const auto cold = run(&cache);      // Miss: fits and inserts.
  const auto warm = run(&cache);      // Hit: re-issues the charges.
  const auto uncached = run(nullptr);  // No cache at all.

  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.insertions, 1u);
  EXPECT_EQ(stats.predict_hits, 1u);

  EXPECT_EQ(std::get<0>(cold), std::get<0>(warm));
  EXPECT_EQ(std::get<0>(cold), std::get<0>(uncached));
  EXPECT_EQ(std::get<1>(cold).breakdown.TotalJoules(),
            std::get<1>(warm).breakdown.TotalJoules());
  EXPECT_EQ(std::get<1>(cold).breakdown.TotalJoules(),
            std::get<1>(uncached).breakdown.TotalJoules());
  // The same charges land on the same scope rows, hit or miss.
  for (const EnergyReading* other : {&std::get<1>(warm),
                                     &std::get<1>(uncached)}) {
    ASSERT_EQ(other->scopes.size(), std::get<1>(cold).scopes.size());
    for (const auto& [path, charge] : std::get<1>(cold).scopes) {
      ASSERT_EQ(other->scopes.count(path), 1u) << path;
      EXPECT_EQ(other->scopes.at(path).charges, charge.charges) << path;
      EXPECT_EQ(other->scopes.at(path).flops, charge.flops) << path;
      EXPECT_EQ(other->scopes.at(path).joules, charge.joules) << path;
    }
  }
  EXPECT_EQ(std::get<2>(cold), std::get<2>(warm));
  EXPECT_EQ(std::get<2>(cold), std::get<2>(uncached));
}

TEST(TransformCachePipelineTest, AdoptedPipelineRefusesRefit) {
  const Dataset train = TestData(60, 5, 2);
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(16 * 1024 * 1024);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ctx.SetTransformCache(&cache);

  Pipeline p = MakePipeline();
  ASSERT_TRUE(p.Fit(train, &ctx).ok());
  // The chain was donated to the cache on the miss: the pipeline now
  // shares transformer instances with it and must refuse a refit.
  EXPECT_EQ(p.Fit(train, &ctx).code(), Status::Code::kFailedPrecondition);
}

TEST(TransformCachePipelineTest, TruncatedFitIsNeverMemoized) {
  const Dataset train = TestData(200, 8, 2);
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(16 * 1024 * 1024);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ctx.SetTransformCache(&cache);
  // Hard-deadline mode with the deadline already expired and slicing
  // forced on: the first sliced charge truncates mid-way.
  ctx.SetMaxSliceSeconds(1e-12);
  ctx.SetHardDeadline(true);
  ctx.SetDeadline(clock.Now());

  Pipeline p = MakePipeline();
  EXPECT_FALSE(p.Fit(train, &ctx).ok());
  EXPECT_TRUE(ctx.charge_truncated());
  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// --- Cache bounding --------------------------------------------------

TEST(TransformCacheTest, LruStaysWithinByteBudgetAndEvicts) {
  const Dataset data = TestData(500, 10, 2);  // ~40 KB dense.
  TransformCache cache(100 * 1024);
  for (int i = 0; i < 6; ++i) {
    cache.Insert(data, "chain" + std::to_string(i), {}, data);
  }
  const TransformCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, 100u * 1024u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 6u);
  EXPECT_LT(stats.entries, 6u);
  // The most recent chain survived; the oldest was evicted.
  EXPECT_NE(cache.Lookup(data, "chain5"), nullptr);
  EXPECT_EQ(cache.Lookup(data, "chain0"), nullptr);
}

TEST(TransformCacheTest, OversizedEntryIsNeverAdmitted) {
  const Dataset data = TestData(500, 10, 2);
  TransformCache cache(1024);  // Smaller than one entry.
  EXPECT_EQ(cache.Insert(data, "chain", {}, data), nullptr);
  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(TransformCacheTest, LookupIsExactOnViewNotJustFingerprint) {
  const Dataset base = TestData(40, 4, 2);
  const Dataset view_a = base.Subset({1, 2, 3});
  const Dataset view_b = base.Subset({1, 2, 4});
  TransformCache cache(16 * 1024 * 1024);
  ASSERT_NE(cache.Insert(view_a, "chain", {}, view_a),
            nullptr);
  EXPECT_NE(cache.Lookup(view_a, "chain"), nullptr);
  EXPECT_EQ(cache.Lookup(view_b, "chain"), nullptr);
  EXPECT_EQ(cache.Lookup(view_a, "other"), nullptr);
}

TEST(TransformCacheTest, LookupSeparatesSchemasOverOneMatrix) {
  const Dataset base = TestData(40, 4, 2);
  const Dataset view = base.Subset({1, 2, 3});
  Dataset retyped = view;
  retyped.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_EQ(retyped.StorageId(), view.StorageId());
  TransformCache cache(16 * 1024 * 1024);
  ASSERT_NE(cache.Insert(view, "chain", {}, view), nullptr);
  EXPECT_NE(cache.Lookup(base.Subset({1, 2, 3}), "chain"), nullptr);
  EXPECT_EQ(cache.Lookup(retyped, "chain"), nullptr);
}

// --- Config signatures -----------------------------------------------

TEST(ConfigSignatureTest, HyperparametersAreEncoded) {
  EXPECT_NE(QuantileBinner(4).ConfigSignature(),
            QuantileBinner(8).ConfigSignature());
  EXPECT_NE(SelectKBest(2).ConfigSignature(),
            SelectKBest(3).ConfigSignature());
  EXPECT_NE(VarianceThreshold(0.0).ConfigSignature(),
            VarianceThreshold(0.5).ConfigSignature());
  EXPECT_NE(Pca(2).ConfigSignature(), Pca(3).ConfigSignature());
  EXPECT_NE(OneHotEncoder(8).ConfigSignature(),
            OneHotEncoder(16).ConfigSignature());
  EXPECT_NE(Scaler(ScalerKind::kStandard).ConfigSignature(),
            Scaler(ScalerKind::kMinMax).ConfigSignature());
  EXPECT_EQ(Pca(2).ConfigSignature(), Pca(2).ConfigSignature());
}

}  // namespace
}  // namespace green
