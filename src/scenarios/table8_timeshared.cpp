// Table 8: performance impact of full time protection on Splash-2 when
// time-sharing the core with an idle domain, with and without switch
// padding — the effective CPU-bandwidth reduction from the increased
// context-switch latency.
//
// Paper: x86 mean 2.76% (no pad) / 3.38% (pad); Arm 0.75% / 1.09%. Max on
// ocean (x86) and raytrace (Arm); padding adds only a few tenths of a
// percent on top.
//
// Swept beyond the paper's point (50% colours per domain): colour fraction
// {1.0, 0.5} of the split — the cost of protection must stay bounded when
// each domain's cache allocation halves.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/padding.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "runner/quick.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"
#include "workloads/splash.hpp"

namespace tp::scenarios {
namespace {

// Accesses completed while time-sharing with an idle domain for `slices`.
std::uint64_t RunTimeShared(const hw::MachineConfig& mc, workloads::SplashKind kind,
                            core::Scenario scenario, bool pad, double colour_fraction,
                            std::size_t slices) {
  hw::Machine machine(mc);
  kernel::KernelConfig kc = core::MakeKernelConfig(scenario, machine, /*timeslice_ms=*/1.0);
  kc.pad_switches = pad;
  kernel::Kernel kernel(machine, kc);
  core::DomainManager mgr(kernel);

  std::vector<std::set<std::size_t>> colours(2);
  if (kc.clone_support) {
    colours = core::SplitColours(mc, 2, colour_fraction);
  }
  hw::Cycles pad_cycles = pad ? core::WorstCaseSwitchCycles(machine, kc.flush_mode) : 0;
  core::Domain& work =
      mgr.CreateDomain({.id = 1, .colours = colours[0], .pad_cycles = pad_cycles});
  mgr.CreateDomain({.id = 2, .colours = colours[1], .pad_cycles = pad_cycles});
  // Domain 2 stays idle (no threads): its kernel's idle thread runs.

  core::MappedBuffer buf = mgr.AllocBuffer(work, workloads::WorkingSetBytes(kind, mc));
  workloads::SplashProgram prog(kind, buf, 0x5B1A5);
  mgr.StartThread(work, &prog, 100, 0);
  kernel.SetDomainSchedule(0, {1, 2});

  hw::Cycles slice = machine.MicrosToCycles(1000.0);
  kernel.RunFor(4 * slice);  // warm up
  std::uint64_t a0 = prog.accesses();
  kernel.RunFor(slices * slice);
  return prog.accesses() - a0;
}

struct PlatformSummary {
  double worst = -1e9;
  double best = 1e9;
  std::string worst_name;
  std::string best_name;
  double geo = 1.0;
  std::size_t n = 0;

  void Fold(const std::string& name, double over) {
    if (over > worst) {
      worst = over;
      worst_name = name;
    }
    if (over < best) {
      best = over;
      best_name = name;
    }
    geo *= 1.0 + over;
    ++n;
  }
  double Mean() const {
    return n == 0 ? 0.0 : std::pow(geo, 1.0 / static_cast<double>(n)) - 1.0;
  }
};

// Raw baselines, one per platform x benchmark (colours unused), then the
// protected runs: pad off/on at full and halved colour allocation.
std::vector<runner::GridSpec> Grids() {
  runner::GridSpec base_grid;
  base_grid.platforms = {kHaswell, kSabre};
  base_grid.variants = SplashNames();
  base_grid.modes = {"raw"};
  runner::GridSpec prot_grid = base_grid;
  prot_grid.modes = {"nopad", "protected"};
  prot_grid.colour_fractions = {1.0, 0.5};
  return {base_grid, prot_grid};
}

runner::CostCell Cell(const runner::GridCell& cell) {
  const std::size_t slices = bench::Scaled(24, 8);
  const std::uint64_t accesses = RunTimeShared(
      PlatformConfig(cell.platform), SplashKindByName(cell.variant),
      cell.mode == "raw" ? core::Scenario::kRaw : core::Scenario::kProtected,
      cell.mode == "protected", cell.colour_fraction, slices);
  return {.rounds = slices, .metrics = {{"accesses", static_cast<double>(accesses)}}};
}

// Overhead of each protected run against its platform/benchmark raw run.
void Overheads(std::vector<runner::SweepCellResult>& results) {
  FillFromBaseline(
      results,
      [](runner::GridCell& cell) {
        if (cell.mode == "raw") {
          return false;
        }
        cell.mode = "raw";
        cell.colour_fraction = 1.0;
        return true;
      },
      [](runner::CostCell& cell, const runner::CostCell& base) {
        cell.metrics["overhead"] = base.metrics.at("accesses") / cell.metrics.at("accesses") - 1.0;
      });
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  // platform -> mode/fraction summary tables keyed like "nopad cf=1".
  std::map<std::string, std::map<std::string, PlatformSummary>> summaries;
  for (const runner::SweepCellResult& r : results) {
    const runner::GridCell& cell = r.cell;
    if (cell.mode != "raw") {
      summaries[cell.platform][cell.mode + Fmt(" cf=%.3g", cell.colour_fraction)].Fold(
          cell.variant, Metric(r, "overhead"));
    }
  }
  for (const auto& [platform, by_config] : summaries) {
    std::printf("\n--- %s ---\n", platform.c_str());
    for (const auto& [config, s] : by_config) {
      std::printf("%-16s max %+.2f%% (%s), min %+.2f%% (%s), mean %+.2f%%\n",
                  config.c_str(), s.worst * 100.0, s.worst_name.c_str(), s.best * 100.0,
                  s.best_name.c_str(), s.Mean() * 100.0);
    }
  }
  std::printf(
      "\nShape checks: single-digit mean overhead; padding adds only a small\n"
      "increment on top of flushing + colouring, and halving the colour\n"
      "allocation keeps the cost bounded.\n");
}

const RegisterChannel registrar{{
    .name = "table8_timeshared",
    .title = "Table 8: time-shared Splash-2 under full time protection",
    .paper = "50% colours: x86 mean 2.76% (no pad) / 3.38% (pad); Arm 0.75% / 1.09%",
    .contract = "protected and nopad cells clean; raw dirty by design",
    .grids = Grids,
    .cost_cell = Cell,
    .derive = Overheads,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
