#include "green/energy/energy_model.h"

#include <algorithm>

namespace green {

EnergyBreakdown& EnergyBreakdown::operator+=(const EnergyBreakdown& o) {
  cpu_dynamic_j += o.cpu_dynamic_j;
  cpu_static_j += o.cpu_static_j;
  dram_j += o.dram_j;
  gpu_dynamic_j += o.gpu_dynamic_j;
  gpu_idle_j += o.gpu_idle_j;
  return *this;
}

WorkExecution EnergyModel::Execute(const Work& work, int cores) const {
  WorkExecution out;
  if (work.flops <= 0.0 && work.bytes <= 0.0) return out;

  if (work.device == Device::kGpu && machine_.has_gpu) {
    const double seconds = work.flops / machine_.gpu_flops;
    out.seconds = seconds;
    out.gpu_busy_seconds = seconds;
    out.dynamic_joules = machine_.gpu_active_watts * seconds +
                         machine_.dram_joules_per_byte * work.bytes;
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
  out.dynamic_joules =
      machine_.cpu_active_watts_per_core * out.busy_core_seconds +
      machine_.dram_joules_per_byte * work.bytes;
  return out;
}

}  // namespace green
