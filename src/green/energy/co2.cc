#include "green/energy/co2.h"

namespace green {

ImpactEstimate EstimateImpact(double kwh, const EmissionFactors& factors) {
  ImpactEstimate out;
  out.kwh = kwh;
  out.kg_co2 = kwh * factors.kg_co2_per_kwh;
  out.eur = kwh * factors.eur_per_kwh;
  return out;
}

}  // namespace green
