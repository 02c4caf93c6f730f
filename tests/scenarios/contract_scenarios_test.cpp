// Registry-level contract acceptance: with taint tracking on, the quick
// grids of the flush, interrupt and ablation scenarios must (a) report a
// clean contract for every protected cell once the kernel is forced to the
// maximal full flush, and (b) pin each deliberate ablation to the exact
// structure whose mechanism it removed.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attacks/channel_experiment.hpp"
#include "hw/taint.hpp"
#include "kernel/kernel.hpp"
#include "runner/quick.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/scenario.hpp"
#include "support/test_support.hpp"
#include "trajectory/diff.hpp"

namespace tp::scenarios {
namespace {

// Taint tracking plus an optional process-global kernel-config override,
// both restored on scope exit.
class TaintedRun {
 public:
  explicit TaintedRun(std::function<void(kernel::KernelConfig&)> override_hook = nullptr) {
    hw::SetTaintTrackingEnabled(true);
    attacks::SetGlobalConfigOverride(std::move(override_hook));
  }
  ~TaintedRun() {
    attacks::SetGlobalConfigOverride(nullptr);
    hw::SetTaintTrackingEnabled(false);
  }
};

std::vector<runner::SweepCellResult> RunAllGrids(const ChannelSpec& spec,
                                                 const runner::ExperimentRunner& pool) {
  std::vector<runner::SweepCellResult> all;
  runner::SweepEngine engine(pool);
  for (const runner::GridSpec& grid : spec.grids()) {
    std::vector<runner::SweepCellResult> cells =
        engine.RunChannelGrid(grid, spec.cell_shard, spec.leak_options);
    for (runner::SweepCellResult& c : cells) {
      all.push_back(std::move(c));
    }
  }
  return all;
}

TEST(ContractScenarios, ProtectedCellsAreCleanUnderFullFlush) {
  test::QuickModeGuard quick;
  TaintedRun tainted([](kernel::KernelConfig& kc) {
    kc.flush_mode = kernel::FlushMode::kFull;
  });
  runner::ExperimentRunner pool(2);
  std::size_t protected_cells = 0;
  for (const char* name :
       {"fig5_flush_channel", "fig6_interrupt_channel", "ablation_mechanisms"}) {
    const ChannelSpec* spec = ChannelRegistry::Global().Find(name);
    ASSERT_NE(spec, nullptr) << name;
    SCOPED_TRACE(name);
    for (const runner::SweepCellResult& cell : RunAllGrids(*spec, pool)) {
      if (!trajectory::IsProtectedCell(cell.cell.Name())) {
        continue;
      }
      SCOPED_TRACE(cell.cell.Name());
      ++protected_cells;
      EXPECT_GT(cell.contract.switches, 0u) << "protected cells must switch domains";
      EXPECT_TRUE(cell.contract.clean())
          << (cell.contract.has_first ? hw::ToString(cell.contract.first) : "");
    }
  }
  EXPECT_GE(protected_cells, 2u) << "the grids lost their protected cells";
}

TEST(ContractScenarios, AblationCellsReportTheMechanismTheyRemove) {
  test::QuickModeGuard quick;
  TaintedRun tainted;  // no override: run the ablations as shipped
  runner::ExperimentRunner pool(2);
  const ChannelSpec* spec = ChannelRegistry::Global().Find("ablation_mechanisms");
  ASSERT_NE(spec, nullptr);

  bool saw_bp = false;
  bool saw_flush = false;
  for (const runner::SweepCellResult& cell : RunAllGrids(*spec, pool)) {
    std::string name = cell.cell.Name();
    if (name.find("ablated") == std::string::npos) {
      continue;
    }
    SCOPED_TRACE(name);
    if (name.find("bp-flush") != std::string::npos) {
      saw_bp = true;
      EXPECT_FALSE(cell.contract.clean());
      ASSERT_TRUE(cell.contract.has_first);
      EXPECT_TRUE(cell.contract.first.structure == "BTB" ||
                  cell.contract.first.structure == "PHT" ||
                  cell.contract.first.structure == "GHR")
          << hw::ToString(cell.contract.first);
    } else if (name.find("on-core-flush") != std::string::npos) {
      saw_flush = true;
      EXPECT_FALSE(cell.contract.clean());
      ASSERT_TRUE(cell.contract.has_first);
      // With the whole on-core flush removed the first residue the checker
      // walks is a cache; the exact access is still named.
      EXPECT_FALSE(cell.contract.first.structure.empty());
      EXPECT_FALSE(cell.contract.first.where.empty());
    }
  }
  EXPECT_TRUE(saw_bp) << "ablation grid lost its bp-flush cell";
  EXPECT_TRUE(saw_flush) << "ablation grid lost its on-core-flush cell";
}

}  // namespace
}  // namespace tp::scenarios
