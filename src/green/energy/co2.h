#ifndef GREEN_ENERGY_CO2_H_
#define GREEN_ENERGY_CO2_H_

namespace green {

/// Converts measured energy into CO2 emissions and monetary cost, with the
/// constants the paper uses for its Table 4 (German grid intensity of
/// 0.222 kg CO2/kWh, average EU electricity price of 0.20 EUR/kWh). The
/// paper stresses that emissions per kWh differ strongly across countries,
/// which is why it reports kWh and treats CO2 as derived.
struct EmissionFactors {
  double kg_co2_per_kwh = 0.222;
  double eur_per_kwh = 0.20;

  static EmissionFactors Germany2023() { return EmissionFactors{}; }
};

/// Derived environmental + monetary cost for a given amount of energy.
struct ImpactEstimate {
  double kwh = 0.0;
  double kg_co2 = 0.0;
  double eur = 0.0;
};

ImpactEstimate EstimateImpact(double kwh, const EmissionFactors& factors);

}  // namespace green

#endif  // GREEN_ENERGY_CO2_H_
