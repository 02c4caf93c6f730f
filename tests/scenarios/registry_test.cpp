// Channel-registry semantics: duplicate/invalid spec rejection, --only
// selection, the --list surfaces, the cells RunSpec returns for every cost
// spec, and thread-count invariance of a newly gridded channel (fig5)
// through the registry's own spec.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/driver.hpp"
#include "scenarios/scenario.hpp"
#include "support/test_support.hpp"

namespace tp::scenarios {
namespace {

ChannelSpec CostSpec(std::string name) {
  ChannelSpec spec;
  spec.name = std::move(name);
  spec.title = "title";
  spec.paper = "paper";
  spec.grids = [] { return std::vector<runner::GridSpec>{runner::GridSpec{}}; };
  spec.cost_cell = [](const runner::GridCell&) { return runner::CostCell{}; };
  return spec;
}

TEST(ChannelRegistry, RejectsDuplicateNames) {
  ChannelRegistry registry;
  registry.Register(CostSpec("a"));
  EXPECT_THROW(registry.Register(CostSpec("a")), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ChannelRegistry, RejectsInvalidSpecs) {
  ChannelRegistry registry;
  EXPECT_THROW(registry.Register(CostSpec("")), std::invalid_argument);

  ChannelSpec no_body = CostSpec("no-body");
  no_body.cost_cell = nullptr;
  EXPECT_THROW(registry.Register(no_body), std::invalid_argument);

  ChannelSpec no_grids;
  no_grids.name = "no-grids";
  no_grids.cell_shard = [](const runner::GridCell&, const runner::Shard&) {
    return mi::Observations{};
  };
  EXPECT_THROW(registry.Register(no_grids), std::invalid_argument);

  ChannelSpec cost_no_grids = CostSpec("cost-no-grids");
  cost_no_grids.grids = nullptr;
  EXPECT_THROW(registry.Register(cost_no_grids), std::invalid_argument);

  // The body decides the kind, so a spec cannot carry both.
  ChannelSpec both = CostSpec("both-bodies");
  both.cell_shard = [](const runner::GridCell&, const runner::Shard&) {
    return mi::Observations{};
  };
  EXPECT_THROW(registry.Register(both), std::invalid_argument);

  EXPECT_EQ(registry.size(), 0u);
}

TEST(ChannelRegistry, FindUnknownReturnsNull) {
  ChannelRegistry registry;
  registry.Register(CostSpec("known"));
  EXPECT_NE(registry.Find("known"), nullptr);
  EXPECT_EQ(registry.Find("unknown"), nullptr);
}

TEST(ChannelRegistry, AllIsNameSortedRegardlessOfRegistrationOrder) {
  ChannelRegistry registry;
  registry.Register(CostSpec("c"));
  registry.Register(CostSpec("a"));
  registry.Register(CostSpec("b"));
  std::vector<const ChannelSpec*> all = registry.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "a");
  EXPECT_EQ(all[1]->name, "b");
  EXPECT_EQ(all[2]->name, "c");
}

TEST(ChannelRegistry, KindDefaultsFromBody) {
  ChannelRegistry registry;
  registry.Register(CostSpec("cost-spec"));
  EXPECT_EQ(registry.Find("cost-spec")->kind(), "cost");

  ChannelSpec channel;
  channel.name = "channel-spec";
  channel.grids = [] { return std::vector<runner::GridSpec>{}; };
  channel.cell_shard = [](const runner::GridCell&, const runner::Shard&) {
    return mi::Observations{};
  };
  registry.Register(channel);
  EXPECT_EQ(registry.Find("channel-spec")->kind(), "channel");
}

TEST(ChannelRegistry, GlobalHasAllBuiltinChannels) {
  const ChannelRegistry& global = ChannelRegistry::Global();
  EXPECT_GE(global.size(), 15u);
  for (const char* name :
       {"fig3_kernel_channel", "fig4_llc_side_channel", "fig5_flush_channel",
        "fig6_interrupt_channel", "fig7_splash_colouring", "table1_platforms",
        "table2_flush_cost", "table3_intra_core", "table4_flush_channel", "table5_ipc",
        "table6_switch_cost", "table7_clone_cost", "table8_timeshared",
        "ablation_mechanisms", "microbench"}) {
    EXPECT_NE(global.Find(name), nullptr) << name;
  }
}

TEST(SelectSpecs, EmptySelectionIsEverySpecInNameOrder) {
  ChannelRegistry registry;
  registry.Register(CostSpec("beta"));
  registry.Register(CostSpec("alpha"));
  std::string error;
  std::vector<const ChannelSpec*> selected = SelectSpecs(registry, {}, &error);
  EXPECT_TRUE(error.empty());
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->name, "alpha");
  EXPECT_EQ(selected[1]->name, "beta");
}

TEST(SelectSpecs, OnlyFiltersInRequestOrder) {
  ChannelRegistry registry;
  registry.Register(CostSpec("alpha"));
  registry.Register(CostSpec("beta"));
  registry.Register(CostSpec("gamma"));
  std::string error;
  std::vector<const ChannelSpec*> selected =
      SelectSpecs(registry, {"gamma", "alpha"}, &error);
  EXPECT_TRUE(error.empty());
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->name, "gamma");
  EXPECT_EQ(selected[1]->name, "alpha");
}

// `--only x --only x` must not run, and record, x twice: tp_bench_diff
// refuses a label that holds a cell's record twice.
TEST(SelectSpecs, RepeatedNameIsSelectedOnceInFirstRequestOrder) {
  ChannelRegistry registry;
  registry.Register(CostSpec("alpha"));
  registry.Register(CostSpec("beta"));
  std::string error;
  std::vector<const ChannelSpec*> selected =
      SelectSpecs(registry, {"beta", "alpha", "beta", "alpha"}, &error);
  EXPECT_TRUE(error.empty());
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->name, "beta");
  EXPECT_EQ(selected[1]->name, "alpha");
}

TEST(SelectSpecs, UnknownNameFailsWithListing) {
  ChannelRegistry registry;
  registry.Register(CostSpec("alpha"));
  std::string error;
  std::vector<const ChannelSpec*> selected = SelectSpecs(registry, {"nope"}, &error);
  EXPECT_TRUE(selected.empty());
  EXPECT_NE(error.find("unknown channel 'nope'"), std::string::npos);
  EXPECT_NE(error.find("alpha"), std::string::npos);
}

TEST(ListSurfaces, ListNamesAndMarkdownCoverEverySpec) {
  ChannelRegistry registry;
  registry.Register(CostSpec("alpha"));
  registry.Register(CostSpec("beta"));
  EXPECT_EQ(ListNames(registry), "alpha\nbeta\n");
  std::string md = MarkdownTable(registry);
  EXPECT_NE(md.find("| channel |"), std::string::npos);
  EXPECT_NE(md.find("| contract_clean |"), std::string::npos);
  EXPECT_NE(md.find("`alpha`"), std::string::npos);
  EXPECT_NE(md.find("`beta`"), std::string::npos);
  // A spec without a contract note renders the placeholder, not an empty cell.
  EXPECT_NE(md.find("| — |"), std::string::npos);
}

TEST(RunSpecTest, ChannelExpandingToNoCellsThrows) {
  // A zero-cell channel would pass every downstream gate (only the "total"
  // record exists), so RunSpec refuses it.
  ChannelSpec spec;
  spec.name = "empty-grid";
  spec.title = "t";
  spec.paper = "p";
  spec.grids = [] { return std::vector<runner::GridSpec>{}; };
  spec.cell_shard = [](const runner::GridCell&, const runner::Shard&) {
    return mi::Observations{};
  };
  runner::ExperimentRunner pool(1);
  EXPECT_THROW(RunSpec(spec, pool, /*verbose=*/false), std::runtime_error);
}

// perfbench's copy of the cost cells relies on a cost spec's results being
// exactly the cells of its grids, in order.
TEST(RunSpecTest, CostSpecsReturnTheirGridCellsInOrder) {
  test::QuickModeGuard quick;
  runner::ExperimentRunner pool(4);
  std::size_t cost_specs = 0;
  for (const ChannelSpec* spec : ChannelRegistry::Global().All()) {
    if (spec->is_channel()) {
      continue;
    }
    SCOPED_TRACE(spec->name);
    ++cost_specs;
    std::vector<std::string> expected;
    for (const runner::GridSpec& grid : spec->grids()) {
      for (const runner::GridCell& cell : runner::ExpandGrid(grid)) {
        expected.push_back(cell.Name());
      }
    }
    std::vector<std::string> names;
    for (const runner::SweepCellResult& r : RunSpec(*spec, pool, /*verbose=*/false)) {
      EXPECT_TRUE(r.ok()) << r.cell.Name() << ": " << r.error;
      EXPECT_TRUE(r.cost.has_value()) << r.cell.Name();
      names.push_back(r.cell.Name());
    }
    EXPECT_EQ(names, expected);
  }
  EXPECT_EQ(cost_specs, 9u);
}

// A cross-cell ratio needs its baseline: when the baseline cell fails, the
// cells comparing against it keep their own figures and leave the ratio out.
TEST(RunSpecTest, FailedBaselineLeavesItsRatiosOut) {
  test::QuickModeGuard quick;
  const ChannelSpec* spec = ChannelRegistry::Global().Find("table5_ipc");
  ASSERT_NE(spec, nullptr);
  faults::InstallFaultPlan({.site = "harness.cell_throw", .param = "Sabre (Arm)/original"});
  std::vector<runner::SweepCellResult> results =
      RunSpec(*spec, runner::ExperimentRunner(2), /*verbose=*/false);
  faults::ClearFaultPlan();
  ASSERT_EQ(results.size(), 8u);
  for (const runner::SweepCellResult& r : results) {
    SCOPED_TRACE(r.cell.Name());
    if (r.cell.Name() == "Sabre (Arm)/original") {
      EXPECT_EQ(r.status, "failed");
      continue;
    }
    ASSERT_TRUE(r.cost.has_value());
    EXPECT_EQ(r.cost->metrics.count("ipc_cycles"), 1u);
    EXPECT_EQ(r.cost->metrics.count("slowdown_pct"), r.cell.platform == "Sabre (Arm)" ? 0u : 1u);
  }
}

// The PR-4 determinism contract for newly gridded channels: the fig5 flush
// grid, run through the registry's own spec, records bit-identical
// observations and MI at TP_THREADS 1 vs 4.
TEST(Fig5FlushGrid, MiBitIdenticalAtOneAndFourThreads) {
  const ChannelSpec* spec = ChannelRegistry::Global().Find("fig5_flush_channel");
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->is_channel());
  std::vector<runner::GridSpec> grids = spec->grids();
  ASSERT_EQ(grids.size(), 1u);
  runner::GridSpec grid = grids[0];
  grid.rounds = 72;  // shrunken for test runtime; shard layout still >1
  ASSERT_EQ(grid.num_cells(), 2u) << "nopad + protected cells expected";

  runner::ExperimentRunner serial(1);
  runner::ExperimentRunner four(4);
  std::vector<runner::SweepCellResult> r1 =
      runner::SweepEngine(serial).RunChannelGrid(grid, spec->cell_shard, spec->leak_options);
  std::vector<runner::SweepCellResult> r4 =
      runner::SweepEngine(four).RunChannelGrid(grid, spec->cell_shard, spec->leak_options);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_GT(r1[i].shards, 1u);
    EXPECT_EQ(r1[i].observations.inputs(), r4[i].observations.inputs());
    EXPECT_EQ(r1[i].observations.outputs(), r4[i].observations.outputs());
    EXPECT_EQ(r1[i].leakage.mi_bits, r4[i].leakage.mi_bits);  // bit-identical
    EXPECT_EQ(r1[i].leakage.m0_bits, r4[i].leakage.m0_bits);
  }
}

}  // namespace
}  // namespace tp::scenarios
