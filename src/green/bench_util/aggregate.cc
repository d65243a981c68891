#include "green/bench_util/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "green/bench_util/table_printer.h"
#include "green/common/fault.h"
#include "green/common/mathutil.h"
#include "green/common/stringutil.h"

namespace green {

Stats ComputeStats(const std::vector<double>& values) {
  Stats out;
  out.n = values.size();
  out.mean = Mean(values);
  out.stddev = StdDev(values);
  return out;
}

Stats BootstrapAcrossDatasets(
    const std::vector<RunRecord>& records,
    const std::function<double(const RunRecord&)>& metric,
    int bootstrap_samples, uint64_t seed) {
  // Group metric values by dataset.
  std::map<std::string, std::vector<double>> by_dataset;
  for (const RunRecord& record : records) {
    by_dataset[record.dataset].push_back(metric(record));
  }
  if (by_dataset.empty()) return Stats{};

  Rng rng(seed);
  std::vector<double> bootstrap_means;
  bootstrap_means.reserve(static_cast<size_t>(bootstrap_samples));
  for (int b = 0; b < bootstrap_samples; ++b) {
    double sum = 0.0;
    for (const auto& [dataset, values] : by_dataset) {
      sum += values[static_cast<size_t>(rng.NextBounded(values.size()))];
    }
    bootstrap_means.push_back(sum /
                              static_cast<double>(by_dataset.size()));
  }
  return ComputeStats(bootstrap_means);
}

std::vector<RunRecord> Filter(const std::vector<RunRecord>& records,
                              const std::string& system,
                              double paper_budget) {
  std::vector<RunRecord> out;
  for (const RunRecord& record : records) {
    if (record.system == system &&
        std::fabs(record.paper_budget_seconds - paper_budget) < 1e-9) {
      out.push_back(record);
    }
  }
  return out;
}

std::vector<RunRecord> Filter(const std::vector<RunRecord>& records,
                              const std::string& system,
                              double paper_budget,
                              const std::string& variant) {
  std::vector<RunRecord> out;
  for (const RunRecord& record : Filter(records, system, paper_budget)) {
    if (record.variant == variant) out.push_back(record);
  }
  return out;
}

std::vector<RunRecord> OkOnly(const std::vector<RunRecord>& records) {
  std::vector<RunRecord> out;
  out.reserve(records.size());
  for (const RunRecord& record : records) {
    if (record.ok()) out.push_back(record);
  }
  return out;
}

std::vector<std::pair<std::string, OutcomeCounts>> CountOutcomes(
    const std::vector<RunRecord>& records) {
  std::vector<std::pair<std::string, OutcomeCounts>> out;
  for (const RunRecord& record : records) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& entry) {
                             return entry.first == record.system;
                           });
    if (it == out.end()) {
      out.emplace_back(record.system, OutcomeCounts{});
      it = std::prev(out.end());
    }
    switch (record.outcome) {
      case RunOutcome::kOk:
        ++it->second.ok;
        break;
      case RunOutcome::kFailed:
        ++it->second.failed;
        break;
      case RunOutcome::kTimeout:
        ++it->second.timeout;
        break;
      case RunOutcome::kSkipped:
        ++it->second.skipped;
        break;
    }
  }
  return out;
}

std::string RenderFailureSummary(
    const std::vector<RunRecord>& records,
    const std::vector<std::pair<std::string, size_t>>& extra_failures) {
  size_t extra_total = 0;
  for (const auto& [site, count] : extra_failures) extra_total += count;

  const auto counts = CountOutcomes(records);
  bool any_non_ok = false;
  for (const auto& [system, c] : counts) {
    if (c.failed + c.timeout + c.skipped > 0) any_non_ok = true;
  }
  if (!any_non_ok && extra_total == 0) return std::string();

  std::string out;
  if (any_non_ok) {
    TablePrinter table({"system", "cells", "ok", "failed", "timeout",
                        "skipped"});
    for (const auto& [system, c] : counts) {
      table.AddRow({system, StrFormat("%zu", c.total()),
                    StrFormat("%zu", c.ok), StrFormat("%zu", c.failed),
                    StrFormat("%zu", c.timeout),
                    StrFormat("%zu", c.skipped)});
    }
    out += table.Render();
  }

  // Per-fault-site breakdown: only failures that trace back to an
  // injected fault (or were handed in via extra_failures) appear, so
  // sweeps with purely organic skips/timeouts keep the original output.
  struct SiteCounts {
    size_t failed = 0;
    size_t timeout = 0;
    size_t skipped = 0;
  };
  std::map<std::string, SiteCounts> sites;
  for (const RunRecord& record : records) {
    if (record.ok()) continue;
    const std::string site = InjectedFaultSite(record.error);
    if (site.empty()) continue;
    SiteCounts& c = sites[site];
    switch (record.outcome) {
      case RunOutcome::kOk:
        break;
      case RunOutcome::kFailed:
        ++c.failed;
        break;
      case RunOutcome::kTimeout:
        ++c.timeout;
        break;
      case RunOutcome::kSkipped:
        ++c.skipped;
        break;
    }
  }
  for (const auto& [site, count] : extra_failures) {
    if (count > 0) sites[site].failed += count;
  }
  if (!sites.empty()) {
    TablePrinter table({"fault site", "failed", "timeout", "skipped"});
    for (const auto& [site, c] : sites) {
      table.AddRow({site, StrFormat("%zu", c.failed),
                    StrFormat("%zu", c.timeout),
                    StrFormat("%zu", c.skipped)});
    }
    out += "-- failures by injected fault site --\n";
    out += table.Render();
  }
  return out;
}

std::string RenderEnergyBreakdown(const std::vector<RunRecord>& records) {
  const std::vector<RunRecord> ok = OkOnly(records);
  bool any_scopes = false;
  for (const RunRecord& record : ok) {
    if (!record.scopes.empty()) any_scopes = true;
  }
  if (!any_scopes) return std::string();

  struct StageSpec {
    const char* prefix;
    const char* title;
    const char* unit;
    double (*total)(const RunRecord&);
  };
  const StageSpec stages[] = {
      {"execution/", "execution energy by scope", "kWh",
       [](const RunRecord& r) { return r.execution_kwh; }},
      {"inference/", "inference energy by scope", "kWh/instance",
       [](const RunRecord& r) { return r.inference_kwh_per_instance; }},
  };

  std::string out;
  for (const StageSpec& stage : stages) {
    TablePrinter table({"system", "scope", stage.unit, "share", "charges"});
    bool any_rows = false;
    for (const std::string& system : DistinctSystems(ok)) {
      double total = 0.0;
      double attributed = 0.0;
      std::map<std::string, std::pair<double, uint64_t>> rows;
      for (const RunRecord& record : ok) {
        if (record.system != system) continue;
        total += stage.total(record);
        for (const RunScope& scope : record.scopes) {
          if (scope.path.rfind(stage.prefix, 0) != 0) continue;
          auto& row = rows[scope.path.substr(strlen(stage.prefix))];
          row.first += scope.kwh;
          row.second += scope.charges;
          attributed += scope.kwh;
        }
      }
      if (rows.empty()) continue;
      any_rows = true;
      for (const auto& [path, row] : rows) {
        table.AddRow({system, path, StrFormat("%.6g", row.first),
                      StrFormat("%.1f%%", total > 0.0
                                    ? 100.0 * row.first / total
                                    : 0.0),
                      StrFormat("%llu",
                                static_cast<unsigned long long>(
                                    row.second))});
      }
      // Static package + idle power belongs to elapsed wall time, not to
      // any scope; this remainder row makes the column sum to `total`.
      const double baseline = total - attributed;
      table.AddRow({system, "(baseline: static+idle)",
                    StrFormat("%.6g", baseline),
                    StrFormat("%.1f%%",
                              total > 0.0 ? 100.0 * baseline / total : 0.0),
                    "-"});
      table.AddRow({system, "total", StrFormat("%.6g", total), "100.0%",
                    "-"});
    }
    if (!any_rows) continue;
    out += StrFormat("-- %s (%s) --\n", stage.title, stage.unit);
    out += table.Render();
  }
  return out;
}

std::vector<std::string> DistinctSystems(
    const std::vector<RunRecord>& records) {
  std::vector<std::string> out;
  for (const RunRecord& record : records) {
    if (std::find(out.begin(), out.end(), record.system) == out.end()) {
      out.push_back(record.system);
    }
  }
  return out;
}

std::vector<double> DistinctBudgets(const std::vector<RunRecord>& records,
                                    const std::string& system) {
  std::vector<double> out;
  for (const RunRecord& record : records) {
    if (record.system != system) continue;
    if (std::find(out.begin(), out.end(),
                  record.paper_budget_seconds) == out.end()) {
      out.push_back(record.paper_budget_seconds);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace green
