// Table 1: the evaluation platforms. Prints the simulated machine
// configurations and the derived colouring geometry so every other
// scenario's context is reproducible from this output.
#include <cstdio>

#include "core/colour.hpp"
#include "hw/machine.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"

namespace tp::scenarios {
namespace {

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.platforms = {kHaswell, kSabre};
  return {grid};
}

// No domain ever switches here; the contract is vacuously clean, recorded
// so taint-on runs carry the observable for every cell.
runner::CostCell Cell(const runner::GridCell& cell) {
  hw::MachineConfig mc = PlatformConfig(cell.platform, /*cores=*/4);
  return {.metrics = {{"num_colours", static_cast<double>(core::NumColours(mc))},
                      {"llc_colours", static_cast<double>(mc.llc.Colours())},
                      {"cores", static_cast<double>(mc.num_cores)}}};
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  for (const runner::SweepCellResult& r : results) {
    hw::MachineConfig mc = PlatformConfig(r.cell.platform, /*cores=*/4);
    std::printf("\n%s\n", mc.name.c_str());
    Table t({"property", "value"});
    t.AddRow({"clock", Fmt("%.1f GHz", mc.clock_ghz)});
    t.AddRow({"cores", std::to_string(mc.num_cores)});
    t.AddRow({"cache line", std::to_string(mc.llc.line_size) + " B"});
    auto cache_row = [&](const char* name, const hw::CacheGeometry& g) {
      t.AddRow({name, std::to_string(g.size_bytes / 1024) + " KiB, " +
                          std::to_string(g.associativity) + "-way, " +
                          std::to_string(g.SetsPerSlice()) + " sets" +
                          (g.num_slices > 1
                               ? " x " + std::to_string(g.num_slices) + " slices"
                               : "") +
                          ", " + std::to_string(g.Colours()) + " colour(s)"});
    };
    cache_row("L1-I", mc.l1i);
    cache_row("L1-D", mc.l1d);
    if (mc.has_private_l2) {
      cache_row("L2 (private)", mc.l2);
    }
    cache_row(mc.has_private_l2 ? "L3 (shared LLC)" : "L2 (shared LLC)", mc.llc);
    auto tlb_row = [&](const char* name, const hw::TlbGeometry& g) {
      t.AddRow({name, std::to_string(g.entries) + " entries, " +
                          std::to_string(g.associativity) + "-way"});
    };
    tlb_row("I-TLB", mc.itlb);
    tlb_row("D-TLB", mc.dtlb);
    tlb_row("L2-TLB", mc.l2tlb);
    t.AddRow({"RAM", std::to_string(mc.ram_bytes >> 30) + " GiB"});
    t.AddRow({"colouring cache",
              std::string(core::ColouringCache(mc).size_bytes / 1024 >= 1024 ? "shared LLC"
                                                                             : "private L2") +
                  " -> " + std::to_string(core::NumColours(mc)) + " colours"});
    t.AddRow({"L1 flush", mc.has_architected_l1_flush ? "architected (DCCISW/ICIALLU)"
                                                      : "manual (loads + jump chain)"});
    t.Print();
  }
}

const RegisterChannel registrar{{
    .name = "table1_platforms",
    .title = "Table 1: hardware platforms (simulated)",
    .paper = "Haswell Core i7-4770 4x2 @3.4GHz; Sabre i.MX6Q Cortex A9 4x1 @0.8GHz",
    .contract = "all cells clean",
    .grids = Grids,
    .cost_cell = Cell,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
