#include "green/energy/stage_ledger.h"

#include <limits>

namespace green {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kDevelopment:
      return "development";
    case Stage::kExecution:
      return "execution";
    case Stage::kInference:
      return "inference";
    case Stage::kServing:
      return "serving";
  }
  return "?";
}

void StageLedger::Add(const std::string& system, Stage stage,
                      const EnergyReading& reading) {
  totals_[{system, stage}] += reading;
  std::map<std::string, ScopeCharge>& tree = scopes_[system];
  const std::string prefix = std::string(StageName(stage)) + "/";
  if (reading.scopes.empty()) {
    // Pre-scope-tree readings still land somewhere visible.
    if (reading.joules() > 0.0) {
      ScopeCharge& sc = tree[prefix + kUnscopedPath];
      sc.seconds += reading.seconds;
      sc.joules += reading.breakdown.cpu_dynamic_j +
                   reading.breakdown.gpu_dynamic_j +
                   reading.breakdown.dram_j;
    }
    return;
  }
  for (const auto& [path, charge] : reading.scopes) {
    tree[prefix + path] += charge;
  }
}

EnergyReading StageLedger::Get(const std::string& system,
                               Stage stage) const {
  auto it = totals_.find({system, stage});
  if (it == totals_.end()) return EnergyReading{};
  return it->second;
}

double StageLedger::TotalKwh(const std::string& system) const {
  double total = 0.0;
  for (Stage s : {Stage::kDevelopment, Stage::kExecution,
                  Stage::kInference, Stage::kServing}) {
    total += Get(system, s).kwh();
  }
  return total;
}

std::vector<ScopeRow> StageLedger::ScopeRows(
    const std::string& system) const {
  std::vector<ScopeRow> out;
  auto it = scopes_.find(system);
  if (it == scopes_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [path, charge] : it->second) {
    out.push_back(ScopeRow{path, charge});
  }
  return out;
}

ScopeCharge StageLedger::Rollup(const std::string& system,
                                const std::string& path_prefix) const {
  ScopeCharge out;
  auto it = scopes_.find(system);
  if (it == scopes_.end()) return out;
  for (const auto& [path, charge] : it->second) {
    if (path == path_prefix ||
        (path.size() > path_prefix.size() &&
         path.compare(0, path_prefix.size(), path_prefix) == 0 &&
         path[path_prefix.size()] == '/')) {
      out += charge;
    }
  }
  return out;
}

double StageLedger::AmortizationRuns(double development_kwh,
                                     double per_run_saving_kwh) {
  if (per_run_saving_kwh <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return development_kwh / per_run_saving_kwh;
}

}  // namespace green
