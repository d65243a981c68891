// Quickstart: run one AutoML system on a tabular task and get a holistic
// energy report — the library's 60-second tour.
//
//   $ ./build/examples/quickstart
//
// Steps shown:
//   1. create (or load) a tabular classification dataset;
//   2. set up the simulated machine, virtual clock, and execution context;
//   3. run an AutoML system under a search budget;
//   4. meter inference separately;
//   5. print each stage's energy and convert the total into CO2 / EUR.

#include <cstdio>

#include "green/automl/caml_system.h"
#include "green/data/synthetic.h"
#include "green/energy/co2.h"
#include "green/ml/metrics.h"
#include "green/table/split.h"

int main() {
  using namespace green;  // NOLINT: example brevity.

  // 1. A synthetic stand-in for "your" table: 600 rows, 12 features
  //    (3 categorical), 3 classes, some label noise.
  SyntheticSpec spec;
  spec.name = "quickstart";
  spec.num_rows = 600;
  spec.num_features = 12;
  spec.num_informative = 8;
  spec.num_categorical = 3;
  spec.num_classes = 3;
  spec.separation = 2.2;
  spec.label_noise = 0.05;
  spec.seed = 2024;
  auto dataset = GenerateSynthetic(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  Rng rng(1);
  TrainTestData data =
      Materialize(*dataset, StratifiedSplit(*dataset, 0.66, &rng));

  // 2. The simulated measurement environment: the paper's 28-core Xeon.
  const MachineModel machine = MachineModel::XeonGold6132();
  EnergyModel energy_model(machine);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &energy_model, /*cores=*/1);

  // 3. Execute CAML with a 10-virtual-second search budget.
  CamlSystem automl;
  AutoMlOptions options;
  options.search_budget_seconds = 10.0;
  options.seed = 7;
  auto run = automl.Fit(data.train, options, &ctx);
  if (!run.ok()) {
    std::fprintf(stderr, "automl: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }

  // 4. Meter the inference stage separately.
  EnergyMeter inference_meter(&energy_model);
  inference_meter.Start(clock.Now());
  ctx.SetMeter(&inference_meter);
  auto predictions = run->artifact.Predict(data.test, &ctx);
  const EnergyReading inference = inference_meter.Stop(clock.Now());
  ctx.SetMeter(nullptr);
  if (!predictions.ok()) return 1;

  // 5. Report.
  const double accuracy =
      BalancedAccuracy(data.test.labels(), predictions.value(),
                       data.test.num_classes());
  std::printf("chosen pipeline : %s\n",
              run->artifact.Describe().c_str());
  std::printf("pipelines tried : %d\n", run->pipelines_evaluated);
  std::printf("balanced acc.   : %.3f\n", accuracy);
  std::printf("execution       : %.2f s, %.3e kWh\n",
              run->actual_seconds, run->execution.kwh());
  std::printf("inference       : %.3e kWh total (%.3e kWh/instance)\n",
              inference.kwh(),
              inference.kwh() / static_cast<double>(data.test.num_rows()));

  const ImpactEstimate impact = EstimateImpact(
      run->execution.kwh() + inference.kwh(),
      EmissionFactors::Germany2023());
  std::printf("total footprint : %.3e kWh = %.3e kg CO2 = %.3e EUR\n",
              impact.kwh, impact.kg_co2, impact.eur);
  return 0;
}
