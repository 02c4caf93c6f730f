// The grid sweep engine: cartesian expansion, coordinate-keyed seed
// streams, thread-count invariance of whole-grid results, crash isolation
// of MI and cost cells, and recording.
#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "attacks/channel_experiment.hpp"
#include "attacks/kernel_channel.hpp"
#include "faults/fault.hpp"
#include "mi/leakage_test.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::runner {
namespace {

TEST(GridSpec, ExpandsCartesianProductInOrder) {
  GridSpec spec;
  spec.platforms = {"p0", "p1"};
  spec.timeslices_ms = {0.25, 1.0};
  spec.colour_fractions = {1.0, 0.5};
  spec.modes = {"raw", "protected"};
  std::vector<GridCell> cells = ExpandGrid(spec);
  ASSERT_EQ(cells.size(), spec.num_cells());
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells.front().platform, "p0");
  EXPECT_EQ(cells.front().mode, "raw");
  EXPECT_EQ(cells.back().platform, "p1");
  EXPECT_EQ(cells.back().mode, "protected");
  // All names and seeds distinct.
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const GridCell& c : cells) {
    names.insert(c.Name());
    seeds.insert(c.seed);
  }
  EXPECT_EQ(names.size(), cells.size());
  EXPECT_EQ(seeds.size(), cells.size());
}

TEST(GridSpec, NeutralAxesAreOmittedFromNames) {
  GridSpec spec;
  spec.platforms = {"Haswell (x86)"};
  spec.modes = {"raw"};
  std::vector<GridCell> cells = ExpandGrid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].Name(), "Haswell (x86)/raw");

  spec.timeslices_ms = {0.25};
  spec.colour_fractions = {0.5};
  spec.variants = {"ocean"};
  cells = ExpandGrid(spec);
  EXPECT_EQ(cells[0].Name(), "Haswell (x86)/ocean/ts=0.25ms/cf=0.5/raw");
}

TEST(GridSpec, SeedsAreKeyedOnCoordinatesNotIndex) {
  GridSpec spec;
  spec.root_seed = 42;
  spec.platforms = {"p0"};
  spec.timeslices_ms = {1.0};
  spec.modes = {"raw", "protected"};
  std::vector<GridCell> before = ExpandGrid(spec);

  // Extending an axis must not reshuffle pre-existing cells' seeds.
  spec.timeslices_ms = {0.25, 1.0};
  spec.platforms = {"p0", "p1"};
  std::vector<GridCell> after = ExpandGrid(spec);
  for (const GridCell& b : before) {
    bool found = false;
    for (const GridCell& a : after) {
      if (a.CoordKey() == b.CoordKey()) {
        EXPECT_EQ(a.seed, b.seed) << b.CoordKey();
        found = true;
      }
    }
    EXPECT_TRUE(found) << b.CoordKey();
  }

  // A different root seed moves every stream.
  spec.root_seed = 43;
  std::vector<GridCell> reseeded = ExpandGrid(spec);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_NE(after[i].seed, reseeded[i].seed);
  }
}

// Synthetic deterministic experiment: observations derived purely from the
// shard seed, so any cross-thread nondeterminism in the engine shows up as
// a result mismatch.
mi::Observations SyntheticShard(const GridCell& cell, const Shard& shard) {
  mi::Observations obs;
  std::mt19937_64 rng(shard.seed);
  std::normal_distribution<double> noise(0.0, 0.3);
  for (std::size_t i = 0; i < shard.rounds; ++i) {
    int symbol = static_cast<int>(rng() % 4);
    double separation = cell.mode == "leaky" ? 5.0 : 0.0;
    obs.Add(symbol, separation * symbol + noise(rng));
  }
  return obs;
}

// Synthetic cost cell: figures derived from the cell's coordinates alone.
CostCell SyntheticCost(const GridCell& cell) {
  return {.rounds = 10 + cell.mode.size(),
          .samples = 3,
          .metrics = {{"seed_low", static_cast<double>(cell.seed % 1000)},
                      {"mode_chars", static_cast<double>(cell.mode.size())}}};
}

TEST(SweepEngine, GridResultsAreThreadCountInvariant) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 96;
  spec.platforms = {"p0", "p1"};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;

  ExperimentRunner pool1(1);
  ExperimentRunner pool4(4);
  std::vector<SweepCellResult> a =
      SweepEngine(pool1).RunChannelGrid(spec, SyntheticShard, lopt);
  std::vector<SweepCellResult> b =
      SweepEngine(pool4).RunChannelGrid(spec, SyntheticShard, lopt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell.Name(), b[i].cell.Name());
    ASSERT_EQ(a[i].observations.size(), b[i].observations.size());
    EXPECT_EQ(a[i].observations.inputs(), b[i].observations.inputs());
    EXPECT_EQ(a[i].observations.outputs(), b[i].observations.outputs());
    EXPECT_EQ(a[i].leakage.mi_bits, b[i].leakage.mi_bits) << a[i].cell.Name();
    EXPECT_EQ(a[i].leakage.m0_bits, b[i].leakage.m0_bits);
  }
  // And the synthetic channel behaves as designed.
  EXPECT_TRUE(a[0].leakage.leak);
  EXPECT_FALSE(a[1].leakage.leak);
}

TEST(SweepEngine, RealKernelChannelGridIsThreadCountInvariant) {
  // One tiny real-simulator cell: the acceptance check behind
  // TP_THREADS=1 vs nproc bit-identical recorded MI.
  GridSpec spec;
  spec.root_seed = 0xF16'3;
  spec.rounds = 48;
  spec.platforms = {"Haswell (x86)"};
  spec.timeslices_ms = {0.25};
  spec.modes = {"raw"};
  auto shard_fn = [](const GridCell& cell, const Shard& shard) {
    attacks::Experiment exp =
        attacks::MakeExperiment(hw::MachineConfig::Haswell(1), core::Scenario::kRaw,
                                {.timeslice_ms = cell.timeslice_ms,
                                 .colour_fraction = cell.colour_fraction});
    return attacks::RunKernelChannel(exp, shard.rounds, shard.seed);
  };
  mi::LeakageOptions lopt;
  lopt.shuffles = 10;
  ExperimentRunner pool1(1);
  ExperimentRunner pool4(4);
  std::vector<SweepCellResult> a = SweepEngine(pool1).RunChannelGrid(spec, shard_fn, lopt);
  std::vector<SweepCellResult> b = SweepEngine(pool4).RunChannelGrid(spec, shard_fn, lopt);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].observations.inputs(), b[0].observations.inputs());
  EXPECT_EQ(a[0].observations.outputs(), b[0].observations.outputs());
  EXPECT_EQ(a[0].leakage.mi_bits, b[0].leakage.mi_bits);
}

// SyntheticShard with two failing cells: "quiet" throws from its first
// shard, "late" from shard 2 on, after its earlier shards succeeded.
mi::Observations ThrowingShard(const GridCell& cell, const Shard& shard) {
  if (cell.mode == "quiet" || (cell.mode == "late" && shard.index >= 2)) {
    throw std::runtime_error(cell.mode + " shard threw");
  }
  return SyntheticShard(cell, shard);
}

// SyntheticShard whose "quiet" cell sleeps 15 ms per shard, so a 40 ms
// cell budget trips by its third shard.
mi::Observations StallingShard(const GridCell& cell, const Shard& shard) {
  if (cell.mode == "quiet") {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  return SyntheticShard(cell, shard);
}

// A crash-isolated MI cell carries its status and nothing else.
void ExpectNoVerdict(const SweepCellResult& r) {
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.observations.size(), 0u);
  EXPECT_FALSE(r.leakage.leak);
  EXPECT_EQ(r.leakage.samples, 0u);
}

TEST(SweepEngine, ThrowingCellIsIsolatedAndOthersComplete) {
  GridSpec spec;
  spec.rounds = 64;  // 4 shards of 16
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet", "late"};
  ExperimentRunner pool(2);

  // A cost cell runs in the same harness: the cell poisoned through the
  // harness.cell_throw site fails alone.
  faults::InstallFaultPlan({.site = "harness.cell_throw", .param = "quiet"});
  std::vector<SweepCellResult> costs = SweepEngine(pool).RunCostGrid(spec, SyntheticCost);
  faults::ClearFaultPlan();
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_TRUE(costs[0].ok());
  ASSERT_TRUE(costs[0].cost.has_value());
  EXPECT_EQ(costs[0].cost->metrics.at("mode_chars"), 5.0);  // "leaky"
  EXPECT_EQ(costs[1].status, "failed");
  EXPECT_NE(costs[1].error.find("harness.cell_throw"), std::string::npos);
  EXPECT_FALSE(costs[1].cost.has_value());
  EXPECT_TRUE(costs[2].ok());

  std::vector<SweepCellResult> results = SweepEngine(pool).RunChannelGrid(spec, ThrowingShard);
  ASSERT_EQ(results.size(), 3u);
  const SweepCellResult& leaky = results[0];
  const SweepCellResult& quiet = results[1];
  const SweepCellResult& late = results[2];
  ASSERT_EQ(leaky.cell.mode, "leaky");
  ASSERT_EQ(quiet.cell.mode, "quiet");
  ASSERT_EQ(late.cell.mode, "late");
  // The healthy cell still produced a full result...
  EXPECT_TRUE(leaky.ok());
  EXPECT_EQ(leaky.observations.size(), 64u);
  EXPECT_TRUE(leaky.leakage.leak);
  // ...while the poisoned ones carry the failure instead of observations,
  // whether their first shard threw or a later one did.
  EXPECT_EQ(quiet.status, "failed");
  EXPECT_EQ(quiet.error, "quiet shard threw");
  ExpectNoVerdict(quiet);
  EXPECT_EQ(late.status, "failed");
  EXPECT_EQ(late.error, "late shard threw");
  ExpectNoVerdict(late);
}

TEST(SweepEngine, StalledCellTripsTheWallTimeBudget) {
  GridSpec spec;
  spec.rounds = 64;
  spec.platforms = {"p0"};
  spec.modes = {"leaky", "quiet"};
  ExperimentRunner pool(2);
  SweepOptions options;
  options.cell_budget_ns = 40'000'000;  // 40 ms

  // A cost cell stalled through the harness.cell_stall site sleeps past
  // the budget.
  faults::InstallFaultPlan({.site = "harness.cell_stall", .param = "quiet"});
  std::vector<SweepCellResult> costs = SweepEngine(pool).RunCostGrid(spec, SyntheticCost, options);
  faults::ClearFaultPlan();
  std::vector<SweepCellResult> channels =
      SweepEngine(pool).RunChannelGrid(spec, StallingShard, {}, options);
  for (const std::vector<SweepCellResult>& grid : {costs, channels}) {
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_TRUE(grid[0].ok());
    EXPECT_EQ(grid[1].status, "timeout");
    EXPECT_NE(grid[1].error.find("budget"), std::string::npos);
  }
  EXPECT_FALSE(costs[1].cost.has_value());
  ExpectNoVerdict(channels[1]);
}

TEST(SweepEngine, CellBudgetTakesOnlyPositiveWholeMilliseconds) {
  EXPECT_EQ(ParseCellBudgetMs("250"), 250u);
  for (const char* bad : {"", "abc", "0.5", "-1", "0", "+5", " 5", "99999999999999999999"}) {
    EXPECT_FALSE(ParseCellBudgetMs(bad).has_value()) << bad;
  }
  // An inherited malformed budget is an error, never a watchdog left off.
  GridSpec spec;
  spec.rounds = 16;
  spec.modes = {"leaky"};
  ExperimentRunner pool(1);
  setenv("TP_CELL_BUDGET_MS", "abc", 1);
  EXPECT_THROW(SweepEngine(pool).RunChannelGrid(spec, SyntheticShard), std::invalid_argument);
  unsetenv("TP_CELL_BUDGET_MS");
}

TEST(SweepEngine, OneCellGridRunsItsCellBitIdentically) {
  GridSpec spec;
  spec.root_seed = 0x5EED;
  spec.rounds = 96;
  spec.platforms = {"p0", "p1"};
  spec.timeslices_ms = {0.25, 1.0};
  spec.modes = {"leaky", "quiet"};
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;
  ExperimentRunner pool(2);
  const std::vector<GridCell> cells = ExpandGrid(spec);
  const std::vector<SweepCellResult> full =
      SweepEngine(pool).RunChannelGrid(spec, SyntheticShard, lopt);
  const std::vector<SweepCellResult> full_costs =
      SweepEngine(pool).RunCostGrid(spec, SyntheticCost);
  ASSERT_EQ(full.size(), 8u);
  ASSERT_EQ(full_costs.size(), 8u);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridSpec one = OneCellGrid(spec, cells[i].Name());
    ASSERT_EQ(one.num_cells(), 1u);
    const GridCell cell = ExpandGrid(one).front();
    EXPECT_EQ(cell.platform, cells[i].platform);
    EXPECT_EQ(cell.variant, cells[i].variant);
    EXPECT_EQ(cell.timeslice_ms, cells[i].timeslice_ms);
    EXPECT_EQ(cell.colour_fraction, cells[i].colour_fraction);
    EXPECT_EQ(cell.mode, cells[i].mode);
    EXPECT_EQ(cell.seed, cells[i].seed);
    EXPECT_EQ(cell.Name(), cells[i].Name());

    // Coordinate-keyed seeds: the one-cell run reproduces that cell of the
    // full-grid run exactly, wherever it sits in the grid.
    const std::vector<SweepCellResult> alone =
        SweepEngine(pool).RunChannelGrid(one, SyntheticShard, lopt);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].shards, full[i].shards);
    EXPECT_EQ(alone[0].observations.inputs(), full[i].observations.inputs());
    EXPECT_EQ(alone[0].observations.outputs(), full[i].observations.outputs());
    EXPECT_EQ(alone[0].leakage.mi_bits, full[i].leakage.mi_bits);
    EXPECT_EQ(alone[0].leakage.m0_bits, full[i].leakage.m0_bits);

    // Cost grids narrow the same way.
    const std::vector<SweepCellResult> alone_cost =
        SweepEngine(pool).RunCostGrid(one, SyntheticCost);
    ASSERT_EQ(alone_cost.size(), 1u);
    ASSERT_TRUE(alone_cost[0].cost.has_value());
    EXPECT_EQ(alone_cost[0].cost->metrics, full_costs[i].cost->metrics);
  }
  EXPECT_THROW(OneCellGrid(spec, "p2/quiet"), std::invalid_argument);
}

TEST(RecordSweep, FailedCellRoundTripsThroughTheTrajectory) {
  std::string path = ::testing::TempDir() + "sweep_failed_cell_test.json";
  std::remove(path.c_str());
  setenv("TP_BENCH_JSON", path.c_str(), 1);
  setenv("TP_BENCH_LABEL", "crash-test", 1);
  faults::InstallFaultPlan({.site = "harness.cell_throw", .param = "quiet"});
  GridSpec cost_spec;
  cost_spec.platforms = {"cost"};
  cost_spec.modes = {"leaky", "quiet"};
  {
    GridSpec spec;
    spec.rounds = 64;
    spec.platforms = {"p0"};
    spec.modes = {"leaky", "quiet"};
    ExperimentRunner pool(2);
    std::vector<SweepCellResult> results =
        SweepEngine(pool).RunChannelGrid(spec, SyntheticShard);
    for (SweepCellResult& r : SweepEngine(pool).RunCostGrid(cost_spec, SyntheticCost)) {
      results.push_back(std::move(r));
    }
    bench::Recorder recorder("sweep_test");
    RecordSweep(recorder, pool, results);
  }
  faults::ClearFaultPlan();
  unsetenv("TP_BENCH_JSON");
  unsetenv("TP_BENCH_LABEL");

  std::string error;
  std::optional<trajectory::Trajectory> t = trajectory::LoadTrajectory(path, &error);
  ASSERT_TRUE(t.has_value()) << error;
  std::map<std::string, const trajectory::TrajectoryRecord*> by_cell;
  for (const trajectory::TrajectoryRecord& r : t->records) {
    by_cell[r.cell] = &r;
  }
  for (const char* name : {"p0/quiet", "p0/leaky", "cost/quiet", "cost/leaky"}) {
    ASSERT_EQ(by_cell.count(name), 1u) << name;
  }
  const trajectory::TrajectoryRecord* failed = by_cell["p0/quiet"];
  const trajectory::TrajectoryRecord* healthy = by_cell["p0/leaky"];
  EXPECT_TRUE(healthy->cell_ok());
  EXPECT_TRUE(healthy->has_mi());
  EXPECT_FALSE(failed->cell_ok());
  EXPECT_EQ(failed->cell_status, "failed");
  EXPECT_NE(failed->cell_error.find("harness.cell_throw"), std::string::npos);
  EXPECT_FALSE(failed->has_mi());

  // The failed cost cell records its status and no figures; the healthy
  // one records exactly what its body returned.
  const trajectory::TrajectoryRecord* failed_cost = by_cell["cost/quiet"];
  const trajectory::TrajectoryRecord* healthy_cost = by_cell["cost/leaky"];
  EXPECT_EQ(failed_cost->cell_status, "failed");
  EXPECT_NE(failed_cost->cell_error.find("harness.cell_throw"), std::string::npos);
  EXPECT_TRUE(failed_cost->metrics.empty());
  EXPECT_TRUE(healthy_cost->cell_ok());
  EXPECT_FALSE(healthy_cost->has_mi());
  const CostCell expected = SyntheticCost(ExpandGrid(cost_spec)[0]);
  EXPECT_EQ(healthy_cost->rounds, expected.rounds);
  EXPECT_EQ(healthy_cost->samples, expected.samples);
  EXPECT_EQ(healthy_cost->metrics, expected.metrics);
  std::remove(path.c_str());
}

TEST(RecordSweep, WritesOneRecordPerCell) {
  std::string path = ::testing::TempDir() + "sweep_record_test.json";
  std::remove(path.c_str());
  setenv("TP_BENCH_JSON", path.c_str(), 1);
  setenv("TP_BENCH_LABEL", "sweep-test", 1);
  GridSpec cost_spec;
  cost_spec.platforms = {"cost"};
  cost_spec.modes = {"only"};
  {
    GridSpec spec;
    spec.rounds = 64;
    spec.platforms = {"p0"};
    spec.modes = {"leaky", "quiet"};
    ExperimentRunner pool(2);
    std::vector<SweepCellResult> results =
        SweepEngine(pool).RunChannelGrid(spec, SyntheticShard);
    for (SweepCellResult& r : SweepEngine(pool).RunCostGrid(cost_spec, SyntheticCost)) {
      results.push_back(std::move(r));
    }
    bench::Recorder recorder("sweep_test");
    RecordSweep(recorder, pool, results);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  EXPECT_NE(text.find("\"cell\": \"p0/leaky\""), std::string::npos);
  EXPECT_NE(text.find("\"cell\": \"p0/quiet\""), std::string::npos);
  EXPECT_NE(text.find("\"mi_bits\""), std::string::npos);
  unsetenv("TP_BENCH_JSON");
  unsetenv("TP_BENCH_LABEL");

  // The cost cell's record carries its body's figures and no MI.
  std::string error;
  std::optional<trajectory::Trajectory> t = trajectory::LoadTrajectory(path, &error);
  ASSERT_TRUE(t.has_value()) << error;
  ASSERT_EQ(t->records.size(), 4u);  // two MI cells, one cost cell, total
  const trajectory::TrajectoryRecord& cost = t->records[2];
  const CostCell expected = SyntheticCost(ExpandGrid(cost_spec)[0]);
  EXPECT_EQ(cost.cell, "cost/only");
  EXPECT_TRUE(cost.cell_ok());
  EXPECT_FALSE(cost.has_mi());
  EXPECT_EQ(cost.rounds, expected.rounds);
  EXPECT_EQ(cost.samples, expected.samples);
  EXPECT_EQ(cost.metrics, expected.metrics);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tp::runner
