// Kernel microbenchmarks (google-benchmark): host-side throughput of the
// instrumented substrates. These measure REAL wall time of the library's
// kernels — complementary to the virtual-time experiment harnesses, and
// useful for spotting performance regressions in the simulator itself.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "green/automl/caml_system.h"
#include "green/automl/fitted_artifact.h"
#include "green/bench_util/experiment.h"
#include "green/data/synthetic.h"
#include "green/ml/kernels/tree_kernels.h"
#include "green/ml/model_registry.h"
#include "green/ml/models/adaboost.h"
#include "green/ml/models/attention_few_shot.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/models/gradient_boosting.h"
#include "green/ml/models/knn.h"
#include "green/ml/models/random_forest.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/pca.h"
#include "green/search/bayes_opt.h"
#include "green/search/caruana.h"
#include "green/search/param_space.h"
#include "green/search/rf_surrogate.h"
#include "green/table/split.h"

namespace green {
namespace {

Dataset BenchData(size_t rows, size_t features, int classes) {
  SyntheticSpec spec;
  spec.name = "bench";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = features / 2;
  spec.num_classes = classes;
  spec.seed = 99;
  auto data = GenerateSynthetic(spec);
  return std::move(data).value();
}

struct Ctx {
  VirtualClock clock;
  EnergyModel model{MachineModel::Minimal()};
  ExecutionContext ctx{&clock, &model, 1};
};

void BM_DecisionTreeFit(benchmark::State& state) {
  const Dataset data =
      BenchData(static_cast<size_t>(state.range(0)), 16, 2);
  Ctx c;
  for (auto _ : state) {
    DecisionTreeParams params;
    params.max_depth = 8;
    DecisionTree tree(params);
    benchmark::DoNotOptimize(tree.Fit(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_DecisionTreeFit)->Arg(200)->Arg(800);

// One exact tree on 800 x 16 with the argument's class count: the split
// scan's per-candidate Gini at 2, 3 and 10 classes.
void BM_TreeSplitScan(benchmark::State& state) {
  const Dataset data =
      BenchData(800, 16, static_cast<int>(state.range(0)));
  Ctx c;
  for (auto _ : state) {
    DecisionTreeParams params;
    params.max_depth = 8;
    DecisionTree tree(params);
    benchmark::DoNotOptimize(tree.Fit(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeSplitScan)->Arg(2)->Arg(3)->Arg(10);

// The per-fit table presort on 30 columns of the argument's rows: ten
// continuous, ten 0/1 one-hot (one 10-level category) and ten tied to a
// grid of half units.
void BM_TablePresortBuild(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const Dataset base = BenchData(rows, 10, 2);
  Dataset data("presort", 30, 2);
  data.Reserve(rows);
  Rng rng(5);
  std::vector<double> x(30);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t category = rng.NextBounded(10);
    for (size_t f = 0; f < 10; ++f) {
      x[f] = base.At(r, f);
      x[10 + f] = f == category ? 1.0 : 0.0;
      x[20 + f] = std::round(base.At(r, f) * 2.0) / 2.0;
    }
    if (!data.AppendRow(x, base.Label(r)).ok()) std::abort();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TablePresort::Build(data));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_TablePresortBuild)->Arg(1058)->Arg(4000);

// PCA to 8 components over 2116 rows (Fashion-MNIST's instantiated size
// in large_tables) of the argument's width: 30 power iterations each.
void BM_PcaFit(benchmark::State& state) {
  const Dataset data =
      BenchData(2116, static_cast<size_t>(state.range(0)), 2);
  Ctx c;
  for (auto _ : state) {
    Pca pca(8);
    benchmark::DoNotOptimize(pca.Fit(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_PcaFit)->Arg(21)->Arg(67);

void BM_QuantileBinnerFit(benchmark::State& state) {
  const Dataset data = BenchData(2000, 16, 2);
  Ctx c;
  for (auto _ : state) {
    QuantileBinner binner;
    benchmark::DoNotOptimize(binner.Fit(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_QuantileBinnerFit);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset data = BenchData(400, 16, 3);
  Ctx c;
  RandomForestParams params;
  params.num_trees = static_cast<int>(state.range(0));
  RandomForest forest(params);
  if (!forest.Fit(data, &c.ctx).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictProba(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_RandomForestPredict)->Arg(8)->Arg(32);

// 32 bootstrap trees over one table: the fit sorts the table once and
// derives every tree's presorted stripes by a counting pass.
void BM_RandomForestFit(benchmark::State& state) {
  const Dataset data =
      BenchData(static_cast<size_t>(state.range(0)), 16, 3);
  Ctx c;
  for (auto _ : state) {
    RandomForestParams params;
    params.num_trees = 32;
    RandomForest forest(params);
    benchmark::DoNotOptimize(forest.Fit(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_RandomForestFit)->Arg(200)->Arg(800);

void BM_AdaBoostFit(benchmark::State& state) {
  const Dataset data = BenchData(400, 16, 3);
  Ctx c;
  for (auto _ : state) {
    AdaBoost ada{AdaBoostParams{}};
    benchmark::DoNotOptimize(ada.Fit(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_AdaBoostFit);

void BM_GradientBoostingFit(benchmark::State& state) {
  const Dataset data = BenchData(300, 12, 2);
  Ctx c;
  for (auto _ : state) {
    GradientBoostingParams params;
    params.num_rounds = static_cast<int>(state.range(0));
    GradientBoosting gb(params);
    benchmark::DoNotOptimize(gb.Fit(data, &c.ctx));
  }
}
BENCHMARK(BM_GradientBoostingFit)->Arg(10)->Arg(30);

void BM_AttentionFewShotInference(benchmark::State& state) {
  const Dataset data =
      BenchData(static_cast<size_t>(state.range(0)), 16, 2);
  Ctx c;
  AttentionFewShot model{AttentionFewShotParams{}};
  if (!model.Fit(data, &c.ctx).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_AttentionFewShotInference)->Arg(128)->Arg(512);

// Brute-force neighbour scan: the distance kernel dominates. Arg = rows
// in the memorized training set (queries reuse the same rows).
void BM_KnnPredict(benchmark::State& state) {
  const Dataset data =
      BenchData(static_cast<size_t>(state.range(0)), 16, 3);
  Ctx c;
  Knn knn{KnnParams{}};
  if (!knn.Fit(data, &c.ctx).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.PredictProba(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_KnnPredict)->Arg(400)->Arg(1600);

// Weighted blend across an ensemble of fitted pipelines. Arg = member
// count; member predicts plus the flat blend accumulation.
void BM_BlendedPredict(benchmark::State& state) {
  const Dataset data = BenchData(400, 12, 3);
  Ctx c;
  std::vector<FittedArtifact::Member> members;
  for (int j = 0; j < state.range(0); ++j) {
    PipelineConfig config;
    config.model = "decision_tree";
    config.seed = static_cast<uint64_t>(j + 1);
    auto pipeline = BuildPipeline(config);
    if (!pipeline.ok() || !pipeline->Fit(data, &c.ctx).ok()) {
      state.SkipWithError("fit failed");
      return;
    }
    FittedArtifact::Member member;
    member.folds.push_back(
        std::make_shared<Pipeline>(std::move(pipeline).value()));
    member.weight = 1.0 / static_cast<double>(state.range(0));
    members.push_back(std::move(member));
  }
  const FittedArtifact artifact =
      FittedArtifact::Weighted(std::move(members));
  for (auto _ : state) {
    benchmark::DoNotOptimize(artifact.PredictProba(data, &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_BlendedPredict)->Arg(4)->Arg(16);

// Serving-sized predicts: the default preprocessing (imputer, one-hot,
// standard scaler) plus a random forest, on a table with categorical
// columns, predicting Arg-row views as the serving layer's micro-batches
// do. Per-batch costs that grow with the column count show here; the
// all-numeric table of BM_BlendedPredict takes the one-hot identity
// shortcut and hides them.
void BM_SmallBatchPredict(benchmark::State& state) {
  SyntheticSpec spec;
  spec.name = "bench_categorical";
  spec.num_rows = 400;
  spec.num_features = 12;
  spec.num_informative = 6;
  spec.num_categorical = 4;
  spec.num_classes = 3;
  spec.seed = 99;
  const Dataset data = GenerateSynthetic(spec).value();
  Ctx c;
  PipelineConfig config;
  config.model = "random_forest";
  auto pipeline = BuildPipeline(config);
  if (!pipeline.ok() || !pipeline->Fit(data, &c.ctx).ok()) {
    state.SkipWithError("fit failed");
    return;
  }
  std::vector<size_t> batch(static_cast<size_t>(state.range(0)));
  size_t next = 0;
  for (auto _ : state) {
    for (size_t& r : batch) {
      r = next;
      next = (next + 1) % data.num_rows();
    }
    benchmark::DoNotOptimize(
        pipeline->PredictProba(data.Subset(batch), &c.ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SmallBatchPredict)->Arg(1)->Arg(8);

// The serving deployment of bench/serve_trace (FitServeDeployment): a
// stack of 13 autogluon pipelines, each imputer, one-hot, standard scaler
// and model, on a table with categorical columns. Predicts Arg-row views
// of its test split, the serving layer's micro-batches: the per-request
// costs of every member's transform chain and of the stacking
// augmentation show here.
void BM_StackedPredict(benchmark::State& state) {
  const ExperimentConfig config;
  const EnergyModel model(config.machine);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, config.cores);
  auto deployment = FitServeDeployment(config, &ctx);
  if (!deployment.ok() || !deployment->artifact.stacked()) {
    state.SkipWithError("autogluon fit failed");
    return;
  }
  const FittedArtifact& artifact = deployment->artifact;
  const Dataset& test = deployment->data.test;
  std::vector<size_t> batch(static_cast<size_t>(state.range(0)));
  size_t next = 0;
  for (auto _ : state) {
    for (size_t& r : batch) {
      r = next;
      next = (next + 1) % test.num_rows();
    }
    benchmark::DoNotOptimize(
        artifact.PredictProba(test.Subset(batch), &ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StackedPredict)->Arg(1)->Arg(8);

void BM_RfSurrogateFit(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<double> x(12);
    for (double& v : x) v = rng.NextDouble();
    ys.push_back(x[0] * x[1]);
    xs.push_back(std::move(x));
  }
  for (auto _ : state) {
    RfSurrogate surrogate(RfSurrogate::Options{});
    benchmark::DoNotOptimize(surrogate.Fit(xs, ys));
  }
}
BENCHMARK(BM_RfSurrogateFit)->Arg(50)->Arg(200);

// One optimizer driven through 40 Ask+Tell steps on a 20-dimension mixed
// space with CAML's defaults (10 random warm-up asks, 64 EI candidates per
// ask, a surrogate refit after every tell): the inner loop of every CAML
// fit, and of every development-stage trial.
void BM_BayesOptLoop(benchmark::State& state) {
  ParamSpace space;
  for (int i = 0; i < 14; ++i) {
    space.Add(ParamSpec::Double("d" + std::to_string(i), 1e-3, 1.0,
                                /*log_scale=*/i % 2 == 0));
  }
  for (int i = 0; i < 4; ++i) {
    space.Add(ParamSpec::Int("i" + std::to_string(i), 1, 64));
  }
  space.Add(ParamSpec::Categorical("model", {"dt", "rf", "knn", "lr"}));
  space.Add(ParamSpec::Categorical("scaler", {"none", "standard"}));
  constexpr int kSteps = 40;
  for (auto _ : state) {
    BayesOpt::Options options;
    options.seed = 7;
    BayesOpt optimizer(&space, options);
    for (int step = 0; step < kSteps; ++step) {
      const ParamPoint p = optimizer.Ask();
      double score = p.choices.at("model") == "rf" ? 0.2 : 0.0;
      for (size_t i = 0; i < p.unit.size(); ++i) {
        const double c = p.unit[i] - 0.3;
        score -= c * c;
      }
      benchmark::DoNotOptimize(optimizer.Tell(p, score));
    }
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_BayesOptLoop);

void BM_CaruanaSelection(benchmark::State& state) {
  Rng rng(2);
  const int n = 128;
  const int members = static_cast<int>(state.range(0));
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i % 2;
  std::vector<ProbaMatrix> library(members);
  for (auto& proba : library) {
    proba.resize(n);
    for (auto& row : proba) {
      const double p = rng.NextDouble();
      row = {p, 1.0 - p};
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CaruanaEnsembleSelection(library, labels, 2, CaruanaOptions{}));
  }
}
BENCHMARK(BM_CaruanaSelection)->Arg(8)->Arg(32);

void BM_CamlFullRun(benchmark::State& state) {
  const Dataset data = BenchData(260, 12, 2);
  for (auto _ : state) {
    Ctx c;
    CamlSystem caml;
    AutoMlOptions options;
    options.search_budget_seconds = 2.0;
    options.seed = 7;
    benchmark::DoNotOptimize(caml.Fit(data, options, &c.ctx));
  }
}
BENCHMARK(BM_CamlFullRun);

// Full experiment sweep across host worker threads. The records are
// bit-identical for every Arg; only the real wall time changes — compare
// /1 vs /4 for the harness speedup. MeasureProcessCPUTime would hide the
// win, so the benchmark uses real time. On a single-hardware-thread host
// the two Args tie (nothing to parallelize onto); the speedup shows on
// any multi-core machine.
void BM_ExperimentSweep(benchmark::State& state) {
  ExperimentConfig config;
  config.dataset_limit = 4;
  config.repetitions = 2;
  config.jobs = static_cast<int>(state.range(0));
  ExperimentRunner runner(config);
  int64_t cells = 0;
  for (auto _ : state) {
    auto records = runner.Sweep({"caml", "flaml"}, {10.0, 30.0});
    if (!records.ok() || records->empty()) {
      state.SkipWithError("sweep failed");
      return;
    }
    cells += static_cast<int64_t>(records->size());
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(cells);  // One record per swept cell.
}
BENCHMARK(BM_ExperimentSweep)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EnergyMeterOverhead(benchmark::State& state) {
  Ctx c;
  EnergyMeter meter(&c.model);
  meter.Start(0.0);
  c.ctx.SetMeter(&meter);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.ctx.ChargeCpu(100.0, 64.0));
  }
}
BENCHMARK(BM_EnergyMeterOverhead);

// Console output plus an optional machine-readable JSON array (one object
// per measured run: name, iterations, ns_per_op, plus any rate counters
// such as items_per_second / bytes_per_second) for CI artifacts.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      rows_.push_back(run);
    }
  }

  bool WriteJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Run& run = rows_[i];
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9
              : run.real_accumulated_time * 1e9;
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"iterations\": %lld, "
                   "\"ns_per_op\": %.3f",
                   run.benchmark_name().c_str(),
                   static_cast<long long>(run.iterations), ns_per_op);
      for (const auto& [counter_name, counter] : run.counters) {
        std::fprintf(f, ", \"%s\": %.3f", counter_name.c_str(),
                     counter.value);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    // fclose flushes the buffer, so a full device often fails only there.
    const bool written = std::ferror(f) == 0;
    return std::fclose(f) == 0 && written;
  }

 private:
  std::vector<Run> rows_;
};

}  // namespace
}  // namespace green

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  green::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.WriteJson(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
