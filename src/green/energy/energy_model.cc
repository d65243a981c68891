#include "green/energy/energy_model.h"

#include <algorithm>

namespace green {

WorkExecution EnergyModel::Execute(const Work& work, int cores) const {
  WorkExecution out;
  if (work.flops <= 0.0 && work.bytes <= 0.0) return out;

  if (work.device == Device::kGpu && machine_.has_gpu) {
    const double seconds = work.flops / machine_.gpu_flops;
    out.seconds = seconds;
    out.gpu_busy_seconds = seconds;
    return out;
  }

  // CPU path (also the fallback when GPU work lands on a CPU-only machine).
  const int c = std::clamp(cores, 1, machine_.num_cores);
  const double f =
      std::clamp(work.parallel_fraction, 0.0, 1.0);
  const double serial_flops = work.flops * (1.0 - f);
  const double parallel_flops = work.flops * f;
  const double per_core = machine_.cpu_flops_per_core;

  const double serial_seconds = serial_flops / per_core;
  const double parallel_seconds =
      parallel_flops / (per_core * static_cast<double>(c));

  out.seconds = serial_seconds + parallel_seconds;
  // Utilization: one core busy in the serial section, all c cores busy in
  // the parallel section. Total busy core-seconds is therefore invariant
  // in c — which is what makes single-core execution Pareto-optimal for
  // sequential workloads (the paper's Fig. 5 CAML result) while fixed
  // workloads still save wall time and amortize static power.
  out.busy_core_seconds =
      serial_seconds + parallel_seconds * static_cast<double>(c);
  return out;
}

}  // namespace green
