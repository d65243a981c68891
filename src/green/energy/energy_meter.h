#ifndef GREEN_ENERGY_ENERGY_METER_H_
#define GREEN_ENERGY_ENERGY_METER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "green/common/status.h"
#include "green/energy/energy_model.h"

namespace green {

/// Dynamic work attributed to one scope path ("caml/search/pipeline/
/// fit/random_forest"). Only per-charge quantities live here — static
/// package power and GPU idle power are properties of elapsed wall time,
/// not of any one scope, so they stay on the flat EnergyBreakdown.
struct ScopeCharge {
  double seconds = 0.0;  ///< Virtual seconds the scope's charges took.
  double joules = 0.0;   ///< Dynamic energy (CPU + GPU + DRAM).
  double flops = 0.0;
  double bytes = 0.0;
  uint64_t charges = 0;  ///< Number of Charge calls attributed here.

  double kwh() const { return joules / 3.6e6; }
};

/// Scope path used for charges issued with no ChargeScope open.
inline constexpr const char* kUnscopedPath = "(unscoped)";

/// Result of one metered scope.
struct EnergyReading {
  double seconds = 0.0;  ///< Virtual wall time covered by the scope.
  EnergyBreakdown breakdown;

  /// Dynamic energy per scope path, keyed by the '/'-joined ChargeScope
  /// stack at the moment each charge was issued. Since every charge
  /// lands on exactly one path, the paths' joules sum to the dynamic
  /// part of `breakdown` (the flat stage totals stay derivable).
  std::map<std::string, ScopeCharge> scopes;

  double kwh() const { return breakdown.TotalKwh(); }
  double joules() const { return breakdown.TotalJoules(); }
};

/// CodeCarbon-style scoped tracker.
///
/// Usage:
///   EnergyMeter meter(&model);
///   meter.Start(clock.Now());
///   ... instrumented code records Work executions ...
///   EnergyReading r = meter.Stop(clock.Now());
///
/// Dynamic energy is attributed per recorded execution; static package
/// power and GPU idle power are charged for the scope's full wall time at
/// Stop(), mirroring how a physical power meter sees a mostly-idle
/// accelerator.
class EnergyMeter {
 public:
  explicit EnergyMeter(const EnergyModel* model);

  EnergyMeter(const EnergyMeter&) = delete;
  EnergyMeter& operator=(const EnergyMeter&) = delete;

  /// Begins a scope at virtual time `clock_now` (seconds).
  void Start(double clock_now);

  /// Attributes one executed work item to the running scope, filed under
  /// `scope_path` (empty = kUnscopedPath).
  void Record(const Work& work, const WorkExecution& exec,
              std::string_view scope_path);

  /// Ends the scope, charging baseline power for the elapsed wall time.
  EnergyReading Stop(double clock_now);

  /// Reading of the scope so far (baseline power up to `clock_now`)
  /// without ending it.
  EnergyReading Peek(double clock_now) const;

  /// Dynamic joules recorded so far (CPU + GPU + DRAM; excludes the
  /// static/idle baseline that Stop charges for elapsed wall time).
  /// Cheap enough to poll per request/batch: the serving layer takes
  /// deltas of this around each micro-batch to attribute Joules/request.
  double dynamic_joules() const { return dynamic_.TotalJoules(); }

  bool running() const { return running_; }

 private:
  const EnergyModel* model_;  // Not owned.
  bool running_ = false;
  double start_time_ = 0.0;
  EnergyBreakdown dynamic_;
  std::map<std::string, ScopeCharge, std::less<>> scopes_;
};

}  // namespace green

#endif  // GREEN_ENERGY_ENERGY_METER_H_
