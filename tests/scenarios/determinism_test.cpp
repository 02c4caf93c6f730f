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

}  // namespace
}  // namespace tp::scenarios
