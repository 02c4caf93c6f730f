// Glue between the sweep grid axes and the simulator's factories: axis
// values map back to machine configs, scenario presets, splash kinds and
// factory-ready ExperimentOptions; plus the cost-cell helpers the cost
// scenarios' derive and report steps share.
#ifndef TP_SCENARIOS_SCENARIO_UTIL_HPP_
#define TP_SCENARIOS_SCENARIO_UTIL_HPP_

#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "runner/quick.hpp"
#include "runner/sweep.hpp"
#include "workloads/splash.hpp"

namespace tp::scenarios {

// Canonical platform-axis values (double as the recorded cell-name prefix).
inline constexpr const char* kHaswell = "Haswell (x86)";
inline constexpr const char* kSabre = "Sabre (Arm)";

// Maps a GridSpec platform-axis value back to its machine config.
inline hw::MachineConfig PlatformConfig(const std::string& name, std::size_t cores = 1) {
  if (name == kHaswell) {
    return hw::MachineConfig::Haswell(cores);
  }
  if (name == kSabre) {
    return hw::MachineConfig::Sabre(cores);
  }
  throw std::invalid_argument("unknown platform axis value: " + name);
}

// Maps a GridSpec mode-axis value back to the scenario preset.
inline core::Scenario ScenarioByName(const std::string& name) {
  for (core::Scenario s : {core::Scenario::kRaw, core::Scenario::kColourReady,
                           core::Scenario::kFullFlush, core::Scenario::kProtected}) {
    if (name == core::ScenarioName(s)) {
      return s;
    }
  }
  throw std::invalid_argument("unknown mode axis value: " + name);
}

// Maps a GridSpec variant-axis value back to the Splash-2 benchmark.
inline workloads::SplashKind SplashKindByName(const std::string& name) {
  for (workloads::SplashKind kind : workloads::AllSplashKinds()) {
    if (name == workloads::SplashName(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown splash variant: " + name);
}

// The Splash-2 benchmark names, the variant axis of the Splash grids.
inline std::vector<std::string> SplashNames() {
  std::vector<std::string> names;
  for (workloads::SplashKind kind : workloads::AllSplashKinds()) {
    names.emplace_back(workloads::SplashName(kind));
  }
  return names;
}

// ExperimentOptions pre-filled from a grid cell's axes; neutral axis values
// (timeslice 0) keep the factory defaults.
inline attacks::ExperimentOptions CellOptions(const runner::GridCell& cell) {
  attacks::ExperimentOptions opt;
  if (cell.timeslice_ms > 0.0) {
    opt.timeslice_ms = cell.timeslice_ms;
  }
  opt.colour_fraction = cell.colour_fraction;
  return opt;
}

// A cost cell's metric as its report shows it; NaN when the cell failed or
// lacks the metric (a ratio whose baseline failed).
inline double Metric(const runner::SweepCellResult& r, const std::string& name) {
  if (r.cost) {
    if (auto it = r.cost->metrics.find(name); it != r.cost->metrics.end()) {
      return it->second;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// The cross-cell ratio step of a cost spec's derive: calls fill(cell,
// baseline) for every finished cost cell whose baseline also finished. The
// baseline is the cell whose coordinates `to_baseline` rewrites the cell's
// into (it returns false for a cell without one). A failed baseline leaves
// its cells' ratios out; the failed cell already fails the run.
inline void FillFromBaseline(
    std::vector<runner::SweepCellResult>& results,
    const std::function<bool(runner::GridCell&)>& to_baseline,
    const std::function<void(runner::CostCell&, const runner::CostCell&)>& fill) {
  std::map<std::string, const runner::CostCell*> finished;
  for (const runner::SweepCellResult& r : results) {
    if (r.cost) {
      finished[r.cell.Name()] = &*r.cost;
    }
  }
  for (runner::SweepCellResult& r : results) {
    runner::GridCell baseline = r.cell;
    if (!r.cost || !to_baseline(baseline)) {
      continue;
    }
    if (auto it = finished.find(baseline.Name()); it != finished.end()) {
      fill(*r.cost, *it->second);
    }
  }
}

}  // namespace tp::scenarios

#endif  // TP_SCENARIOS_SCENARIO_UTIL_HPP_
