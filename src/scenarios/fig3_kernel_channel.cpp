// Figure 3: kernel timing-channel matrix — conditional probability of LLC
// misses (output) given the sender's system call (input), on a shared
// kernel image (raw) vs cloned kernels (full time protection).
//
// Swept beyond the paper's points: timeslice {0.25, 1.0} ms and, for the
// protected mode, colour fraction {1.0, 0.5} of each domain's 50% split —
// protection must hold at every grid cell.
#include <cstdio>

#include "attacks/channel_experiment.hpp"
#include "attacks/kernel_channel.hpp"
#include "mi/channel_matrix.hpp"
#include "runner/quick.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"

namespace tp::scenarios {
namespace {

mi::Observations CellShard(const runner::GridCell& cell, const runner::Shard& shard) {
  attacks::Experiment exp = attacks::MakeExperiment(
      PlatformConfig(cell.platform), ScenarioByName(cell.mode), CellOptions(cell));
  return attacks::RunKernelChannel(exp, shard.rounds, shard.seed);
}

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec raw;
  raw.root_seed = 0xF16'3;
  raw.rounds = bench::Scaled(1200);
  raw.platforms = {kHaswell, kSabre};
  raw.timeslices_ms = {0.25, 1.0};
  raw.modes = {"raw"};

  runner::GridSpec prot = raw;
  prot.modes = {"protected"};
  prot.colour_fractions = {1.0, 0.5};
  return {raw, prot};
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  const runner::SweepCellResult& paper_cell = results.front();
  std::printf(
      "\nchannel matrix at the paper's point (%s; inputs: 0=Signal 1=SetPriority "
      "2=Poll 3=idle; output: LLC misses):\n%s",
      paper_cell.cell.Name().c_str(),
      mi::ChannelMatrix(paper_cell.observations, 24).ToAscii(16).c_str());
  std::printf(
      "\nShape check: raw shows a clear channel at every timeslice on both\n"
      "platforms; cloned, coloured kernels remove the correlation at every\n"
      "grid cell, including the halved colour allocation.\n");
}

const RegisterChannel registrar{{
    .name = "fig3_kernel_channel",
    .title = "Figure 3: timing channel via a shared kernel image",
    .paper = "x86: raw M=0.79b (n=255790), protected M=0.6mb (M0=0.1mb); "
             "Arm: raw M=20mb, protected 0.0mb",
    .contract = "protected cells clean; raw dirty (shared kernel image residue)",
    .grids = Grids,
    .cell_shard = CellShard,
    .leak_options = {.shuffles = 60},
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
