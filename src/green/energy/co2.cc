#include "green/energy/co2.h"

#include <limits>

namespace green {

ImpactEstimate EstimateImpact(double kwh, const EmissionFactors& factors) {
  ImpactEstimate out;
  out.kwh = kwh;
  out.kg_co2 = kwh * factors.kg_co2_per_kwh;
  out.eur = kwh * factors.eur_per_kwh;
  return out;
}

double AmortizationRuns(double development_kwh, double per_run_saving_kwh) {
  if (per_run_saving_kwh <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return development_kwh / per_run_saving_kwh;
}

}  // namespace green
