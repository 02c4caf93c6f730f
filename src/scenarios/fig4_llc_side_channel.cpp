// Figure 4: cross-core LLC side-channel attack (Liu et al. 2015) against a
// square-and-multiply ElGamal decryption, spy and victim on separate cores,
// as a platform x {raw, protected} grid.
//
// Paper: the unmitigated spy sees the victim's square-function invocations
// as dots on the monitored cache set, with the secret key encoded in the
// intervals; with time protection (coloured LLC) the spy can no longer
// detect any cache activity of the victim. The protected cell's
// `activity_fraction` metric is leak-gated by tp_bench_diff.
#include <cstdio>

#include "attacks/llc_side_channel.hpp"
#include "runner/quick.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"

namespace tp::scenarios {
namespace {

constexpr std::uint64_t kSecret = 0xB1A5ED5EEDull;

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.platforms = {kHaswell};
  grid.modes = {"raw", "protected"};
  return {grid};
}

// The spy trace is one continuous time series per scenario, so the unit of
// work is the grid cell, not the slot.
runner::CostCell Cell(const runner::GridCell& cell) {
  const std::size_t slots = bench::Scaled(1200, 256);
  attacks::SideChannelResult r = attacks::RunLlcSideChannel(
      PlatformConfig(cell.platform, 2), ScenarioByName(cell.mode), kSecret, slots);
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "activity in %zu/%zu slots (%.1f%%), %zu dot events, victim completed "
                "%zu decryptions\n",
                r.activity_slots, r.trace.size(), r.activity_fraction * 100.0,
                r.activity_events, r.victim_decryptions);
  return {.rounds = slots,
          .samples = r.trace.size(),
          .metrics = {{"activity_slots", static_cast<double>(r.activity_slots)},
                      {"activity_events", static_cast<double>(r.activity_events)},
                      {"activity_fraction", r.activity_fraction}},
          .display = summary + r.AsciiTrace(100)};
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  for (const runner::SweepCellResult& r : results) {
    std::printf("\n%s: %s", r.cell.Name().c_str(), r.cost ? r.cost->display.c_str() : "failed\n");
  }
  std::printf(
      "\nShape check: the raw spy recovers the square-invocation pattern (dots\n"
      "with bit-dependent spacing); colouring leaves the spy blind.\n");
}

const RegisterChannel registrar{{
    .name = "fig4_llc_side_channel",
    .title = "Figure 4: cross-core LLC side channel on modular exponentiation",
    .paper = "raw: square-pattern dots at the victim's set; protected: no "
             "activity detectable",
    .contract = "all cells clean (cross-core: no shared on-core state)",
    .grids = Grids,
    .cost_cell = Cell,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
