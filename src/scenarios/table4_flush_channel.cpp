// Table 4: the cache-flush channel (mb) with and without switch padding,
// for both online- and offline-time observables on both platforms, as a
// platform x observable x mode grid.
//
// Paper: x86 8.4/8.3 mb unpadded -> closed (0.5/0.6) with a 58.8 µs pad;
// Arm 1400/1400 mb unpadded -> closed with a 62.5 µs pad. The x86 channel
// is small because the manual flush's write-back variation is buried in the
// jump-chain cost; the Arm DCCISW flush exposes it directly.
#include <cstdio>

#include "attacks/channel_experiment.hpp"
#include "attacks/flush_channel.hpp"
#include "core/padding.hpp"
#include "runner/quick.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"

namespace tp::scenarios {
namespace {

mi::Observations CellShard(const runner::GridCell& cell, const runner::Shard& shard) {
  hw::MachineConfig mc = PlatformConfig(cell.platform);
  attacks::ExperimentOptions opt;
  opt.timeslice_ms = mc.arch == hw::Arch::kX86 ? 0.25 : 0.5;
  opt.disable_padding = cell.mode == "nopad";
  attacks::Experiment exp = attacks::MakeExperiment(mc, core::Scenario::kProtected, opt);
  attacks::FlushChannelParams params;
  params.observable = cell.variant == "Online" ? attacks::TimingObservable::kOnline
                                               : attacks::TimingObservable::kOffline;
  return attacks::RunFlushChannel(exp, params, shard.rounds, shard.seed);
}

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.root_seed = 0x7AB4E;
  grid.rounds = bench::Scaled(900);
  grid.platforms = {kHaswell, kSabre};
  grid.variants = {"Online", "Offline"};
  grid.modes = {"nopad", "protected"};
  return {grid};
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  Table t({"platform", "timing", "no pad M (mb)", "protected M (M0) (mb)", "verdict",
           "pad (us)"});
  // Modes are the innermost axis: each observable's nopad / protected cells
  // are consecutive.
  for (std::size_t c = 0; c + 2 <= results.size(); c += 2) {
    const runner::GridCell& cell = results[c].cell;
    const mi::LeakageResult& nopad = results[c].leakage;
    const mi::LeakageResult& padded = results[c + 1].leakage;
    hw::Machine probe(PlatformConfig(cell.platform));
    double pad_us = probe.CyclesToMicros(
        core::WorstCaseSwitchCycles(probe, kernel::FlushMode::kOnCore));
    std::string verdict = nopad.leak && !padded.leak ? "closed by padding"
                          : (!nopad.leak ? "no unpadded channel" : "STILL LEAKS");
    t.AddRow({cell.platform, cell.variant,
              Fmt("%.1f", nopad.MilliBits()) + (nopad.leak ? "*" : ""),
              Fmt("%.1f", padded.MilliBits()) + " (" + Fmt("%.1f", padded.M0MilliBits()) +
                  ")" + (padded.leak ? "*" : ""),
              verdict, Fmt("%.1f", pad_us)});
  }
  std::printf("\n");
  t.Print();
  std::printf(
      "\nShape check: the Arm channel is orders of magnitude larger than the\n"
      "x86 one (architected flush exposes dirty-line write-back directly);\n"
      "padding to the worst case closes both.\n");
}

const RegisterChannel registrar{{
    .name = "table4_flush_channel",
    .title = "Table 4: cache-flush channel (mb) without and with time padding",
    .paper = "x86: 8.4/8.3mb -> 0.5/0.6mb (pad 58.8us); Arm: 1400/1400mb -> "
             "closed (pad 62.5us)",
    .contract = "all cells clean (pure timing channel, no residue)",
    .grids = Grids,
    .cell_shard = CellShard,
    .leak_options = {.shuffles = 50},
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
