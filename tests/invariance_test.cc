// Execution strategies that must not change results, one row each: a
// reference sweep and the strategies it is rerun under, checked by the
// invariance harness (bench_util/invariance.h) for byte-identical record
// streams, equal execution energy and conserving scopes. A new knob that
// must not change results adds a row here.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "green/bench_util/invariance.h"

namespace green {
namespace {

struct Row {
  std::string name;
  SweepCase sweep;
  std::vector<InvarianceStrategy> strategies;
  /// What the row claims about its reference beyond invariance, so that
  /// the row cannot pass by exercising nothing.
  std::function<void(const InvarianceMatrix&)> also = nullptr;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

SweepCase SmallCase(std::vector<double> budgets) {
  SweepCase sweep;
  sweep.config.dataset_limit = 2;
  sweep.config.repetitions = 1;
  sweep.config.seed = 7;
  sweep.config.collect_scopes = true;
  sweep.systems = {"caml", "flaml"};
  sweep.budgets = std::move(budgets);
  return sweep;
}

std::vector<Row> Rows() {
  std::vector<Row> rows;

  // Run seeds are cell-local, so worker interleaving must not leak into
  // results.
  Row jobs{"Jobs", SmallCase({10.0, 30.0}), {InvarianceStrategy::Jobs(4)}};
  jobs.sweep.config.repetitions = 2;
  rows.push_back(jobs);

  // Probabilistic fault draws are keyed by (cell, attempt), never by
  // thread interleaving or by which cells a resume re-runs.
  Row faults{"Faults",
             SmallCase({10.0, 30.0}),
             {InvarianceStrategy::Jobs(4), InvarianceStrategy::Resume()}};
  faults.sweep.config.repetitions = 2;
  faults.sweep.config.faults = "run.fit@0.5";
  faults.sweep.config.max_attempts = 2;
  faults.also = [](const InvarianceMatrix& matrix) {
    // p=0.5 over 16 cells: some must draw it.
    EXPECT_TRUE(std::any_of(matrix.reference().begin(),
                            matrix.reference().end(),
                            [](const RunRecord& r) { return !r.ok(); }));
  };
  rows.push_back(faults);

  // Cache hits re-issue the fitted chain's charges.
  Row cache{"TransformCache", SmallCase({10.0}),
            {InvarianceStrategy::CacheOff()}};
  cache.sweep.config.seed = 42;
  rows.push_back(cache);

  // Each shard runs its round-robin slice at 2 jobs; the merged journals
  // are the single-process stream.
  rows.push_back(Row{"Shards",
                     SmallCase({10.0, 30.0}),
                     {InvarianceStrategy::Shards(2),
                      InvarianceStrategy::Shards(3),
                      InvarianceStrategy::Shards(5)}});

  // Variant names are part of the cell identity in journals, resume and
  // merges.
  Row variants{"Variants",
               SmallCase({10.0, 30.0}),
               {InvarianceStrategy::Jobs(4), InvarianceStrategy::Shards(3),
                InvarianceStrategy::Resume()}};
  variants.sweep.config.dataset_limit = 1;
  variants.sweep.systems = {"caml"};
  SweepVariant quad;
  quad.name = "cores=4";
  quad.cores = 4;
  variants.sweep.variants = {SweepVariant{}, quad};
  rows.push_back(variants);
  return rows;
}

class InvarianceTest : public ::testing::TestWithParam<Row> {};

TEST_P(InvarianceTest, StrategiesReproduceTheReference) {
  const Row& row = GetParam();
  InvarianceMatrix matrix(row.sweep);
  const Status status = matrix.Check(row.strategies);
  ASSERT_TRUE(status.ok()) << status.ToString();
  if (row.also) row.also(matrix);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, InvarianceTest, ::testing::ValuesIn(Rows()),
    [](const ::testing::TestParamInfo<Row>& info) { return info.param.name; });

}  // namespace
}  // namespace green
