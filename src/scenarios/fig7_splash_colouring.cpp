// Figure 7: Splash-2 slowdowns from cache colouring and kernel cloning,
// relative to the baseline kernel with an unpartitioned cache, as a
// platform x benchmark x {base, clone} x colour-fraction grid.
//
// Paper shapes: sub-1% (Arm) / sub-2% (x86) slowdowns for most benchmarks
// at 50% colours; raytrace (large working set) suffers most (6.5% at 50%
// on Arm, dropping to 2.5% at 75%); running on a *cloned* kernel adds
// almost nothing on top of colouring.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/domain.hpp"
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

// Cycles to complete `target_accesses` of `kind`, solo on the machine.
double RunOnce(const hw::MachineConfig& mc, workloads::SplashKind kind, bool clone,
               double colour_fraction, std::uint64_t target_accesses) {
  hw::Machine machine(mc);
  kernel::KernelConfig kc;
  kc.clone_support = clone;
  kc.timeslice_cycles = machine.MicrosToCycles(10'000.0);
  kernel::Kernel kernel(machine, kc);
  core::DomainManager mgr(kernel);

  core::DomainOptions opts;
  opts.id = 1;
  if (colour_fraction < 1.0) {
    opts.colours = core::SplitColours(mc, 1, colour_fraction)[0];
  }
  core::Domain& d = mgr.CreateDomain(opts);
  core::MappedBuffer buf = mgr.AllocBuffer(d, workloads::WorkingSetBytes(kind, mc));
  workloads::SplashProgram prog(kind, buf, /*seed=*/0x5B1A5);
  mgr.StartThread(d, &prog, 100, 0);
  kernel.SetDomainSchedule(0, {1});
  kernel.KickSchedule(0);

  // Warm-up pass over a fraction of the working set.
  while (prog.accesses() < target_accesses / 8) {
    kernel.StepCore(0);
  }
  hw::Cycles t0 = machine.core(0).now();
  std::uint64_t a0 = prog.accesses();
  while (prog.accesses() - a0 < target_accesses) {
    kernel.StepCore(0);
  }
  return static_cast<double>(machine.core(0).now() - t0);
}

// Every (benchmark, config) run, the 100% baselines included, is an
// independent simulation.
std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.platforms = {kHaswell, kSabre};
  grid.variants = SplashNames();
  grid.modes = {"base", "clone"};
  grid.colour_fractions = {1.0, 0.75, 0.5};
  return {grid};
}

runner::CostCell Cell(const runner::GridCell& cell) {
  const std::uint64_t accesses = bench::QuickMode() ? 60'000 : 320'000;
  const double cycles = RunOnce(PlatformConfig(cell.platform), SplashKindByName(cell.variant),
                                cell.mode == "clone", cell.colour_fraction, accesses);
  return {.rounds = accesses, .metrics = {{"cycles", cycles}}};
}

// Slowdown of every cell against its benchmark's base run with all colours.
void Slowdowns(std::vector<runner::SweepCellResult>& results) {
  FillFromBaseline(
      results,
      [](runner::GridCell& cell) {
        cell.mode = "base";
        cell.colour_fraction = 1.0;
        return true;
      },
      [](runner::CostCell& cell, const runner::CostCell& base) {
        cell.metrics["slowdown"] = cell.metrics.at("cycles") / base.metrics.at("cycles") - 1.0;
      });
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  // Slowdowns for the per-platform tables, the baselines themselves left out.
  std::map<std::string, std::map<std::string, double>> slowdowns;  // platform -> col -> geo
  std::map<std::string, std::map<std::string, std::string>> rows;  // platform/bench -> col
  for (const runner::SweepCellResult& r : results) {
    const runner::GridCell& cell = r.cell;
    if (cell.mode == "base" && cell.colour_fraction == 1.0) {
      continue;
    }
    const double slowdown = Metric(r, "slowdown");
    std::string col = Fmt("%.0f", cell.colour_fraction * 100.0) + "% " + cell.mode;
    rows[cell.platform + "/" + cell.variant][col] = Fmt("%+.2f%%", slowdown * 100.0);
    auto& geo = slowdowns[cell.platform][col];
    geo = (geo == 0.0 ? 1.0 : geo) * (slowdown + 1.0);
  }

  const std::vector<std::string> kinds = SplashNames();
  const std::vector<std::string> cols = {"75% base", "50% base", "100% clone", "75% clone",
                                         "50% clone"};
  const double n = static_cast<double>(kinds.size());
  for (const std::string& platform : {std::string(kHaswell), std::string(kSabre)}) {
    std::printf("\n--- %s ---\n", platform.c_str());
    Table t({"benchmark", cols[0], cols[1], cols[2], cols[3], cols[4]});
    for (const std::string& kind : kinds) {
      std::vector<std::string> row{kind};
      for (const std::string& col : cols) {
        row.push_back(rows[platform + "/" + kind][col]);
      }
      t.AddRow(std::move(row));
    }
    std::vector<std::string> mean_row{"GEOMEAN"};
    for (const std::string& col : cols) {
      double g = std::pow(slowdowns[platform][col], 1.0 / n) - 1.0;
      mean_row.push_back(Fmt("%+.2f%%", g * 100.0));
    }
    t.AddRow(std::move(mean_row));
    t.Print();
  }
  std::printf(
      "\nShape checks: slowdown grows as the colour share shrinks; the\n"
      "large-working-set benchmarks (raytrace, fft, ocean) suffer most; the\n"
      "cloned-kernel columns track the base columns closely.\n");
}

const RegisterChannel registrar{{
    .name = "fig7_splash_colouring",
    .title = "Figure 7: Splash-2 slowdown from colouring and cloned kernels",
    .paper = "most benchmarks <2% even at 50% colours; raytrace worst (6.5% at "
             "50% Arm, 2.5% at 75%); cloning adds ~0 on top",
    .contract = "all cells clean (full protection throughout)",
    .grids = Grids,
    .cost_cell = Cell,
    .derive = Slowdowns,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
