// Registry-wide sharding-determinism check: every registered channel-kind
// scenario must produce bit-identical observations and MI on its quick
// grids whether the flat shard pool runs on one host thread or four. This
// is the invariant that lets the recorded trajectory gate demand
// --max-mi-delta 0 across thread counts — a hot-path "optimisation" that
// perturbs any simulated state shows up here as an MI diff on the exact
// channel it broke.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/quick.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/scenario.hpp"
#include "support/test_support.hpp"

namespace tp::scenarios {
namespace {

TEST(RegistryDeterminism, QuickGridMiBitIdenticalAtOneAndFourThreads) {
  // Quick-grid scale, exactly as the CI sweep runs (grids() reads TP_QUICK
  // at call time).
  test::QuickModeGuard quick;
  ASSERT_TRUE(bench::QuickMode());

  runner::ExperimentRunner serial(1);
  runner::ExperimentRunner four(4);
  std::size_t channels_checked = 0;
  std::size_t cells_checked = 0;

  for (const ChannelSpec* spec : ChannelRegistry::Global().All()) {
    if (!spec->is_channel()) {
      continue;  // cost scenarios carry no MI estimate
    }
    SCOPED_TRACE(spec->name);
    ++channels_checked;
    for (const runner::GridSpec& grid : spec->grids()) {
      std::vector<runner::SweepCellResult> r1 =
          runner::SweepEngine(serial).RunChannelGrid(grid, spec->cell_shard,
                                                     spec->leak_options);
      std::vector<runner::SweepCellResult> r4 =
          runner::SweepEngine(four).RunChannelGrid(grid, spec->cell_shard,
                                                   spec->leak_options);
      ASSERT_EQ(r1.size(), r4.size());
      for (std::size_t i = 0; i < r1.size(); ++i) {
        SCOPED_TRACE(r1[i].cell.Name());
        EXPECT_EQ(r1[i].observations.inputs(), r4[i].observations.inputs());
        EXPECT_EQ(r1[i].observations.outputs(), r4[i].observations.outputs());
        EXPECT_EQ(r1[i].leakage.mi_bits, r4[i].leakage.mi_bits);  // bit-identical
        EXPECT_EQ(r1[i].leakage.m0_bits, r4[i].leakage.m0_bits);
        ++cells_checked;
      }
    }
  }
  EXPECT_GE(channels_checked, 6u) << "registry lost channel-kind scenarios";
  EXPECT_GE(cells_checked, 50u) << "quick grids shrank unexpectedly";
}

TEST(RegistryDeterminism, AdaptiveQuickGridStoppingBitIdenticalAtOneAndFourThreads) {
  // Same invariant with sequential early stopping enabled: the stopping
  // decision, executed rounds, observations prefix, MI/M0 and the CI
  // bounds must all be pure functions of the deterministic shard stream —
  // never of shard arrival order.
  test::QuickModeGuard quick;
  ASSERT_TRUE(bench::QuickMode());

  runner::SweepOptions options;
  options.adaptive.enabled = true;

  runner::ExperimentRunner serial(1);
  runner::ExperimentRunner four(4);
  std::size_t cells_checked = 0;
  std::size_t stopped_early = 0;

  for (const ChannelSpec* spec : ChannelRegistry::Global().All()) {
    if (!spec->is_channel()) {
      continue;
    }
    SCOPED_TRACE(spec->name);
    for (const runner::GridSpec& grid : spec->grids()) {
      std::vector<runner::SweepCellResult> r1 = runner::SweepEngine(serial).RunChannelGrid(
          grid, spec->cell_shard, spec->leak_options, options);
      std::vector<runner::SweepCellResult> r4 = runner::SweepEngine(four).RunChannelGrid(
          grid, spec->cell_shard, spec->leak_options, options);
      ASSERT_EQ(r1.size(), r4.size());
      for (std::size_t i = 0; i < r1.size(); ++i) {
        SCOPED_TRACE(r1[i].cell.Name());
        EXPECT_TRUE(r1[i].adaptive);
        EXPECT_EQ(r1[i].rounds_run, r4[i].rounds_run);
        EXPECT_EQ(r1[i].stopped_early, r4[i].stopped_early);
        EXPECT_EQ(r1[i].observations.inputs(), r4[i].observations.inputs());
        EXPECT_EQ(r1[i].observations.outputs(), r4[i].observations.outputs());
        EXPECT_EQ(r1[i].leakage.mi_bits, r4[i].leakage.mi_bits);
        EXPECT_EQ(r1[i].leakage.m0_bits, r4[i].leakage.m0_bits);
        EXPECT_EQ(r1[i].mi_ci_low, r4[i].mi_ci_low);
        EXPECT_EQ(r1[i].mi_ci_high, r4[i].mi_ci_high);
        if (r1[i].stopped_early) {
          ++stopped_early;
          EXPECT_LT(r1[i].rounds_run, r1[i].rounds);
        }
        ++cells_checked;
      }
    }
  }
  EXPECT_GE(cells_checked, 50u) << "quick grids shrank unexpectedly";
  // The quick grids contain plenty of decisively clean and decisively
  // leaky cells; if none stops early the adaptive path is not engaging.
  EXPECT_GT(stopped_early, 0u);
}

}  // namespace
}  // namespace tp::scenarios
