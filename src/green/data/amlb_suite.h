#ifndef GREEN_DATA_AMLB_SUITE_H_
#define GREEN_DATA_AMLB_SUITE_H_

#include <string>
#include <vector>

#include "green/common/status.h"
#include "green/table/dataset.h"

namespace green {

/// One row of the paper's Table 2: the 39 OpenML test datasets proposed by
/// Gijsbers et al. (the AutoML Benchmark).
struct AmlbTaskSpec {
  std::string name;
  int openml_id = 0;
  int64_t instances = 0;
  int64_t features = 0;
  int num_classes = 0;
};

/// Controls how nominal task sizes are scaled down to instantiated
/// simulation sizes so a full benchmark sweep stays CI-grade on one core.
/// `Full()` raises the caps for higher-fidelity (slower) runs; selected by
/// GREEN_FULL=1 through ExperimentConfig::Load.
struct SimulationProfile {
  size_t max_rows = 1400;
  size_t min_rows = 120;
  size_t max_features = 48;
  size_t min_features = 4;
  int max_classes = 20;
  double row_scale = 4.0;      ///< instantiated ~ row_scale * sqrt(nominal).
  double feature_scale = 1.6;  ///< instantiated ~ feature_scale * sqrt(nominal).
  int repetitions = 3;         ///< Default experiment repetitions.

  static SimulationProfile Fast();
  static SimulationProfile Full();
};

/// The 39 specs of Table 2, in the paper's order.
const std::vector<AmlbTaskSpec>& AmlbTable2();

/// Instantiates one task as a synthetic dataset at simulation scale.
/// Task difficulty (separation, noise, cluster structure) is derived
/// deterministically from the task name so every run of the suite sees
/// the same 39 problems.
Result<Dataset> InstantiateAmlbTask(const AmlbTaskSpec& spec,
                                    const SimulationProfile& profile,
                                    uint64_t seed);

/// Instantiates the whole suite (or its first `limit` tasks; 0 = all).
Result<std::vector<Dataset>> InstantiateAmlbSuite(
    const SimulationProfile& profile, uint64_t seed, size_t limit = 0);

}  // namespace green

#endif  // GREEN_DATA_AMLB_SUITE_H_
