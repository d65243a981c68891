#ifndef GREEN_ENERGY_ENERGY_MODEL_H_
#define GREEN_ENERGY_ENERGY_MODEL_H_

#include "green/energy/machine_model.h"

namespace green {

/// One unit of accounted work, as reported by instrumented kernels.
struct Work {
  double flops = 0.0;  ///< Abstract FLOP-equivalents.
  double bytes = 0.0;  ///< Bytes moved through the memory system.
  Device device = Device::kCpu;
  /// Fraction of the work that can execute in parallel (Amdahl). Tree
  /// ensembles are close to 1; boosting/BO inner loops are lower.
  double parallel_fraction = 0.9;
};

/// Outcome of executing one Work item on a machine.
struct WorkExecution {
  double seconds = 0.0;            ///< Virtual wall time consumed.
  double busy_core_seconds = 0.0;  ///< CPU core-seconds actually busy.
  double gpu_busy_seconds = 0.0;   ///< GPU busy time.
  double dynamic_joules = 0.0;     ///< Energy excluding static/idle draw.
};

/// Breakdown of energy attributed to a metered scope (Joules).
struct EnergyBreakdown {
  double cpu_dynamic_j = 0.0;
  double cpu_static_j = 0.0;
  double dram_j = 0.0;
  double gpu_dynamic_j = 0.0;
  double gpu_idle_j = 0.0;

  double TotalJoules() const {
    return cpu_dynamic_j + cpu_static_j + dram_j + gpu_dynamic_j +
           gpu_idle_j;
  }
  double TotalKwh() const { return TotalJoules() / 3.6e6; }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o);
};

/// Pure-function energy model: Work x MachineModel x core count ->
/// duration + dynamic energy. Static/idle power is charged per elapsed
/// wall time by the EnergyMeter, so that a present-but-unused accelerator
/// still costs energy (the paper's Table 3 AutoGluon-on-GPU effect).
class EnergyModel {
 public:
  explicit EnergyModel(const MachineModel& machine) : machine_(machine) {}

  /// Executes `work` on `cores` CPU cores (ignored for GPU work).
  /// Duration follows Amdahl's law; busy core-seconds follow utilization
  /// (serial sections keep one core busy, parallel sections keep all).
  WorkExecution Execute(const Work& work, int cores) const;

  const MachineModel& machine() const { return machine_; }

 private:
  MachineModel machine_;
};

/// Converts Joules to kWh.
inline double JoulesToKwh(double joules) { return joules / 3.6e6; }

}  // namespace green

#endif  // GREEN_ENERGY_ENERGY_MODEL_H_
