#ifndef GREEN_ENERGY_STAGE_LEDGER_H_
#define GREEN_ENERGY_STAGE_LEDGER_H_

#include <map>
#include <string>
#include <vector>

#include "green/energy/energy_meter.h"

namespace green {

/// The three AutoML life-cycle stages of Tornede et al. that the paper's
/// holistic analysis attributes energy to, plus the online serving stage
/// the inference server adds on top (per-request inference under load,
/// ML.ENERGY-style — distinct from the paper's offline test-set pass).
enum class Stage {
  kDevelopment = 0,
  kExecution = 1,
  kInference = 2,
  kServing = 3,
};

const char* StageName(Stage stage);

/// One aggregated row of the ledger's scope tree: a stage-prefixed scope
/// path ("execution/caml/search/pipeline/fit/random_forest") and the
/// dynamic work charged to it.
struct ScopeRow {
  std::string path;
  ScopeCharge charge;
};

/// Accumulates energy readings per (system, scope path). This is the
/// paper's central bookkeeping device, rebuilt hierarchically: each
/// reading's per-scope charges are filed under a stage-prefixed path, so
/// "which operator inside the search burned the kWh?" is answerable,
/// while the flat per-(system, stage) totals remain derivable (Get /
/// TotalKwh are unchanged) — savings in one stage (e.g. TabPFN's free
/// execution) can be paid for in another (its expensive inference), and
/// only a ledger across all three stages makes the trade-offs visible.
class StageLedger {
 public:
  void Add(const std::string& system, Stage stage,
           const EnergyReading& reading);

  /// Total reading accumulated for (system, stage); zero if absent.
  EnergyReading Get(const std::string& system, Stage stage) const;

  /// kWh across all stages for one system.
  double TotalKwh(const std::string& system) const;

  /// All aggregated scope rows for one system, sorted by path. Paths are
  /// stage-prefixed; charges issued with no ChargeScope open appear
  /// under "<stage>/(unscoped)".
  std::vector<ScopeRow> ScopeRows(const std::string& system) const;

  /// Sum of all scope charges whose path equals `path_prefix` or lies
  /// beneath it ("execution/caml/search" rolls up the whole subtree).
  /// A stage name as the prefix gives the stage's dynamic kWh; the
  /// remainder of Get(system, stage).kwh() is baseline (static + idle)
  /// power, which belongs to elapsed wall time rather than to any scope.
  ScopeCharge Rollup(const std::string& system,
                     const std::string& path_prefix) const;

  /// Amortization: number of executions after which investing
  /// `development_kwh` up-front pays off against a baseline whose
  /// per-execution energy is higher by `per_run_saving_kwh`.
  /// Returns a large sentinel if the saving is non-positive.
  static double AmortizationRuns(double development_kwh,
                                 double per_run_saving_kwh);

 private:
  std::map<std::pair<std::string, Stage>, EnergyReading> totals_;
  /// system -> stage-prefixed scope path -> aggregated charge.
  std::map<std::string, std::map<std::string, ScopeCharge>> scopes_;
};

}  // namespace green

#endif  // GREEN_ENERGY_STAGE_LEDGER_H_
