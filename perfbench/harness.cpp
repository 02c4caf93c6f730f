// perfbench — the benchmark harness that perfbench/run.py drives.
//
// Runs one workload of the benchmark as a closed batch: registered scenario
// cells on the quick grid, one host thread, taint off, fixed rounds, no
// fault injection. Every cell builds its own machine, so caches start
// empty. Modes (all output is one JSON object per line on stdout):
//
//   perfbench info
//       build provenance, and whether timings from this build may be
//       reported (not from a Debug, unoptimised or sanitizer build)
//   perfbench setup --workload W --seed N
//       everything a run does before its first cell; prints the monotonic
//       clock at the moment the first cell would begin
//   perfbench run --workload W --seed N --seconds S --records DIR
//       untraced passes over the workload while the next one still fits in
//       S seconds (at least one); then the peak resident set
//   perfbench trace --workload W --seed N --records DIR
//       an untraced pass, a traced pass, a traced replay A/B (each item with
//       the batch-replay memo on and with TP_NO_REPLAY=1, back to back), a
//       fixed MI probe cell, the cells' set-up constructors and the hw and
//       kernel layer probes
//
// Each pass records its cells through bench::Recorder into DIR/pass-K.json,
// which run.py compares with the committed reference. The seed only
// chooses the order the cells run in: the grid seeds stay the registered
// ones, so every pass can be checked against that reference.
//
// The traced pass times calls into each layer's public entry points from
// here: channel cells are driven through runner::ExpandGrid / PlanShards /
// MergeObservations with spans around spec.cell_shard and mi::TestLeakage;
// cost scenarios run through scenarios::RunSpec, and their cells' own
// recorded wall_ns give the scenario-layer split.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attacks/channel_experiment.hpp"
#include "build_info.hpp"
#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "layer_probes.hpp"
#include "mi/leakage_test.hpp"
#include "runner/recorder.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/driver.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "workloads/splash.hpp"

namespace tp::perfbench {
namespace {

using bench::Recorder;

constexpr const char* kUsage =
    "usage: perfbench info\n"
    "       perfbench setup --workload W --seed N\n"
    "       perfbench run   --workload W --seed N --seconds S --records DIR\n"
    "       perfbench trace --workload W --seed N --records DIR\n";

struct Workload {
  const char* name;
  std::vector<std::string> specs;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"probe_channels", {"fig3_kernel_channel", "table3_intra_core"}},
      {"switch_cost", {"table6_switch_cost"}},
      {"splash", {"fig7_splash_colouring", "table8_timeshared"}},
  };
  return kAll;
}

// One unit of a pass: one MI cell of a channel spec, run through a grid
// holding only that cell (its seed is keyed on its coordinates, so it is
// the registered cell), or a whole cost spec, whose cells only its own
// body can enumerate.
struct Item {
  const scenarios::ChannelSpec* spec = nullptr;
  runner::GridSpec grid;
  runner::GridCell cell;

  bool channel() const { return spec->is_channel(); }
};

runner::GridSpec OneCellGrid(const runner::GridSpec& grid, const runner::GridCell& cell) {
  runner::GridSpec one = grid;
  one.platforms = {cell.platform};
  one.variants = {cell.variant};
  one.timeslices_ms = {cell.timeslice_ms};
  one.colour_fractions = {cell.colour_fraction};
  one.modes = {cell.mode};
  const std::vector<runner::GridCell> cells = runner::ExpandGrid(one);
  if (cells.size() != 1 || cells[0].seed != cell.seed || cells[0].Name() != cell.Name()) {
    throw std::logic_error("one-cell grid does not reproduce cell " + cell.Name());
  }
  return one;
}

// The workload's items in registry order, then shuffled by `seed` (seed 0
// keeps registry order).
std::vector<Item> PlanItems(const Workload& workload, std::uint64_t seed) {
  const scenarios::ChannelRegistry& registry = scenarios::ChannelRegistry::Global();
  std::vector<Item> items;
  for (const std::string& name : workload.specs) {
    const scenarios::ChannelSpec* spec = registry.Find(name);
    if (spec == nullptr) {
      throw std::runtime_error("scenario '" + name + "' is not registered");
    }
    if (!spec->is_channel()) {
      items.push_back(Item{spec, {}, {}});
      continue;
    }
    for (const runner::GridSpec& grid : spec->grids()) {
      for (const runner::GridCell& cell : runner::ExpandGrid(grid)) {
        items.push_back(Item{spec, OneCellGrid(grid, cell), cell});
      }
    }
  }
  std::uint64_t state = seed;
  for (std::size_t i = items.size(); seed != 0 && i > 1; --i) {
    state = runner::SplitMix64(state);
    std::swap(items[i - 1], items[state % i]);
  }
  return items;
}

// Peak resident set of this program. VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which keeps the peak of the process that forked
// us.
std::uint64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// {"key": ["name", ...], ...}
std::string JsonLists(const std::map<std::string, std::vector<std::string>>& lists) {
  std::string out = "{";
  for (const auto& [key, list] : lists) {
    out += (out.size() > 1 ? ", " : "") + Quote(key) + ": [";
    for (std::size_t i = 0; i < list.size(); ++i) {
      out += (i > 0 ? ", " : "") + Quote(list[i]);
    }
    out += "]";
  }
  return out + "}";
}

// One flat JSON object, printed as a single stdout line.
class Line {
 public:
  explicit Line(std::string_view kind) { text_ = "{\"kind\": " + Quote(kind); }
  Line& Add(std::string_view key, std::string_view value) {
    text_ += ", " + Quote(key) + ": " + Quote(value);
    return *this;
  }
  Line& Add(std::string_view key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    text_ += ", " + Quote(key) + ": " + buf;
    return *this;
  }
  Line& Add(std::string_view key, std::uint64_t value) {
    text_ += ", " + Quote(key) + ": " + std::to_string(value);
    return *this;
  }
  Line& AddRaw(std::string_view key, const std::string& json) {
    text_ += ", " + Quote(key) + ": " + json;
    return *this;
  }
  void Print() const {
    std::printf("%s}\n", text_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string text_;
};

// Host time and simulated work of one pass over the workload.
struct PassStats {
  std::uint64_t wall_ns = 0;
  hw::SimTally sim;
  // Traced passes only: time inside spec.cell_shard, mi::TestLeakage and
  // scenarios::RunSpec of cost specs.
  std::uint64_t shard_ns = 0;
  std::uint64_t leak_ns = 0;
  std::uint64_t cost_spec_ns = 0;

  void Add(const PassStats& other) {
    wall_ns += other.wall_ns;
    sim.accesses += other.sim.accesses;
    sim.branches += other.sim.branches;
    shard_ns += other.shard_ns;
    leak_ns += other.leak_ns;
    cost_spec_ns += other.cost_spec_ns;
  }
};

// Times `body` (which fills the span fields) and takes the simulated work
// from the SimTally it moved.
template <typename Body>
PassStats MeasurePass(Body&& body) {
  PassStats stats;
  const hw::SimTally before = hw::SimTallySnapshot();
  const std::uint64_t t0 = Recorder::NowNs();
  body(stats);
  stats.wall_ns = Recorder::NowNs() - t0;
  const hw::SimTally after = hw::SimTallySnapshot();
  stats.sim = {after.accesses - before.accesses, after.branches - before.branches};
  return stats;
}

// One recorder per channel spec; each writes its records when the pass
// destroys the map.
using Recorders = std::map<std::string, std::unique_ptr<Recorder>>;

Recorder& RecorderFor(Recorders& recorders, const std::string& spec) {
  std::unique_ptr<Recorder>& recorder = recorders[spec];
  if (!recorder) {
    recorder = std::make_unique<Recorder>(spec);
  }
  return *recorder;
}

// The program path tp_bench takes: RunChannelGrid + RecordSweep for MI
// cells, RunSpec for cost specs, every cell recorded.
PassStats RunPass(const std::vector<Item>& items, const runner::ExperimentRunner& pool) {
  return MeasurePass([&](PassStats&) {
    runner::SweepEngine engine(pool);
    Recorders recorders;
    for (const Item& item : items) {
      if (!item.channel()) {
        scenarios::RunSpec(*item.spec, pool, /*verbose=*/false);
        continue;
      }
      runner::RecordSweep(RecorderFor(recorders, item.spec->name), pool,
                          engine.RunChannelGrid(item.grid, item.spec->cell_shard,
                                                item.spec->leak_options));
    }
  });
}

struct CellSpans {
  mi::LeakageResult leakage;
  std::size_t shards = 0;
  std::uint64_t shard_ns = 0;
  std::uint64_t leak_ns = 0;
};

// One MI cell through the runner's public pieces, timing each layer call.
CellSpans TraceCell(const scenarios::ChannelSpec& spec, const runner::GridSpec& grid,
                    const runner::GridCell& cell) {
  CellSpans spans;
  const runner::ShardPlan plan =
      runner::PlanShards(grid.rounds, cell.seed, grid.min_shard_rounds, grid.max_shards);
  std::vector<mi::Observations> parts;
  parts.reserve(plan.num_shards());
  for (std::size_t i = 0; i < plan.num_shards(); ++i) {
    const std::uint64_t t0 = Recorder::NowNs();
    parts.push_back(spec.cell_shard(cell, runner::Shard{i, plan.SeedFor(i),
                                                        plan.shard_rounds[i]}));
    spans.shard_ns += Recorder::NowNs() - t0;
  }
  const mi::Observations merged = runner::MergeObservations(parts);
  const std::uint64_t t0 = Recorder::NowNs();
  spans.leakage = mi::TestLeakage(merged, spec.leak_options);
  spans.leak_ns = Recorder::NowNs() - t0;
  spans.shards = plan.num_shards();
  return spans;
}

// One item of a traced pass: an MI cell through TraceCell, recorded as
// RecordSweep would record it, or a cost spec through RunSpec, whose cells
// record their own wall_ns.
void TraceItem(const Item& item, const runner::ExperimentRunner& pool, Recorders& recorders,
               PassStats& stats) {
  if (!item.channel()) {
    const std::uint64_t t0 = Recorder::NowNs();
    scenarios::RunSpec(*item.spec, pool, /*verbose=*/false);
    stats.cost_spec_ns += Recorder::NowNs() - t0;
    return;
  }
  const CellSpans spans = TraceCell(*item.spec, item.grid, item.cell);
  stats.shard_ns += spans.shard_ns;
  stats.leak_ns += spans.leak_ns;
  bench::BenchRecord record;
  record.cell = item.cell.Name();
  record.rounds = item.grid.rounds;
  record.samples = spans.leakage.samples;
  record.mi_bits = spans.leakage.mi_bits;
  record.m0_bits = spans.leakage.m0_bits;
  record.wall_ns = spans.shard_ns + spans.leak_ns;
  record.threads = pool.threads();
  record.shards = spans.shards;
  RecorderFor(recorders, item.spec->name).Add(std::move(record));
}

PassStats TracePass(const std::vector<Item>& items, const runner::ExperimentRunner& pool) {
  return MeasurePass([&](PassStats& stats) {
    Recorders recorders;
    for (const Item& item : items) {
      TraceItem(item, pool, recorders, stats);
    }
  });
}

// The batch-replay A/B: every item runs traced twice, with the memo on and
// with TP_NO_REPLAY=1 (which each core reads when it is built), back to
// back and alternating which goes first, so the two runs of an item meet
// the same host conditions. Each side records into its own file.
std::pair<PassStats, PassStats> ReplayPasses(const std::vector<Item>& items,
                                             const runner::ExperimentRunner& pool,
                                             const std::string& on_path,
                                             const std::string& off_path) {
  PassStats sides[2];  // [replay on, replay off]
  {
    Recorders recorders[2];
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (const bool off : {i % 2 == 1, i % 2 == 0}) {
        setenv("TP_BENCH_JSON", (off ? off_path : on_path).c_str(), 1);
        if (off) {
          setenv("TP_NO_REPLAY", "1", 1);
        } else {
          unsetenv("TP_NO_REPLAY");
        }
        sides[off].Add(MeasurePass(
            [&](PassStats& stats) { TraceItem(items[i], pool, recorders[off], stats); }));
      }
    }
    unsetenv("TP_NO_REPLAY");
  }
  return {sides[0], sides[1]};
}

// `label` is "untraced", "traced", "replay on" or "replay off"; the
// traced ones carry their span times.
void PrintPass(std::size_t index, std::string_view label, const std::string& records,
               const PassStats& stats) {
  Line line("pass");
  line.Add("pass", static_cast<std::uint64_t>(index))
      .Add("label", label)
      .Add("records", records)
      .Add("wall_ns", stats.wall_ns)
      .Add("sim_accesses", stats.sim.accesses)
      .Add("sim_branches", stats.sim.branches);
  if (label != "untraced") {
    line.Add("shard_ns", stats.shard_ns)
        .Add("leak_ns", stats.leak_ns)
        .Add("cost_spec_ns", stats.cost_spec_ns);
  }
  line.Print();
}

// --- set-up constructors ---------------------------------------------------

// Host time of the constructors one run of `spec`'s cell body makes before
// it simulates, destruction excluded: the attack experiment for the MI
// cells and Table 6, the machine, kernel and domain manager for the Splash
// cells. Mirrors each scenario's own set-up.
std::uint64_t CellSetupNs(const std::string& spec, const runner::GridCell& cell) {
  const hw::MachineConfig mc = scenarios::PlatformConfig(cell.platform);
  const std::uint64_t t0 = Recorder::NowNs();
  if (spec == "fig3_kernel_channel" || spec == "table3_intra_core" ||
      spec == "table6_switch_cost") {
    attacks::ExperimentOptions options = scenarios::CellOptions(cell);
    if (spec == "table3_intra_core") {
      options.timeslice_ms = mc.arch == hw::Arch::kX86 ? 0.25 : 0.5;
    } else if (spec == "table6_switch_cost") {
      options.timeslice_ms = 0.25;
      options.disable_padding = true;
    }
    attacks::Experiment exp =
        attacks::MakeExperiment(mc, scenarios::ScenarioByName(cell.mode), options);
    return Recorder::NowNs() - t0;
  }
  hw::Machine machine(mc);
  kernel::KernelConfig kc;
  if (spec == "fig7_splash_colouring") {
    kc.clone_support = cell.mode == "clone";
    kc.timeslice_cycles = machine.MicrosToCycles(10'000.0);
  } else if (spec == "table8_timeshared") {
    kc = core::MakeKernelConfig(
        cell.mode == "raw" ? core::Scenario::kRaw : core::Scenario::kProtected, machine, 1.0);
    kc.pad_switches = cell.mode == "protected";
  } else {
    throw std::logic_error("no set-up recipe for scenario '" + spec + "'");
  }
  kernel::Kernel kernel(machine, kc);
  core::DomainManager manager(kernel);
  return Recorder::NowNs() - t0;
}

// The cells a cost spec's body runs, as its own grids define them.
std::vector<runner::GridCell> CostCells(const std::string& spec) {
  std::vector<std::string> kinds;
  for (workloads::SplashKind kind : workloads::AllSplashKinds()) {
    kinds.emplace_back(workloads::SplashName(kind));
  }
  std::vector<runner::GridSpec> grids(1);
  runner::GridSpec& grid = grids[0];
  if (spec == "table6_switch_cost") {
    grid.platforms = {scenarios::kHaswell};
    grid.variants = {"Idle", "L1-D", "L1-I", "L2", "L3"};
    grid.modes = {"raw", "full flush", "protected"};
    grids.push_back(grid);
    grids[1].platforms = {scenarios::kSabre};
    grids[1].variants = {"Idle", "L1-D", "L1-I", "L2"};
  } else if (spec == "fig7_splash_colouring") {
    grid.platforms = {scenarios::kHaswell, scenarios::kSabre};
    grid.variants = kinds;
    grid.modes = {"base", "clone"};
    grid.colour_fractions = {1.0, 0.75, 0.5};
  } else if (spec == "table8_timeshared") {
    grid.platforms = {scenarios::kHaswell, scenarios::kSabre};
    grid.variants = kinds;
    grid.modes = {"raw"};
    grids.push_back(grid);
    grids[1].modes = {"nopad", "protected"};
    grids[1].colour_fractions = {1.0, 0.5};
  } else {
    throw std::logic_error("no cell list for cost scenario '" + spec + "'");
  }
  std::vector<runner::GridCell> cells;
  for (const runner::GridSpec& g : grids) {
    for (runner::GridCell& cell : runner::ExpandGrid(g)) {
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// Constructor time of every cell's set-up, timed once per cell and counted
// once per construction the workload makes (MI cells build one experiment
// per shard). Prints the timed cell names per spec so run.py can check them
// against the recorded cells.
void PrintCellSetup(const std::vector<Item>& items) {
  std::uint64_t total_ns = 0;
  std::map<std::string, std::vector<std::string>> names;
  for (const Item& item : items) {
    const std::string& spec = item.spec->name;
    if (item.channel()) {
      const std::size_t shards =
          runner::PlanShards(item.grid.rounds, item.cell.seed, item.grid.min_shard_rounds,
                             item.grid.max_shards)
              .num_shards();
      total_ns += CellSetupNs(spec, item.cell) * shards;
      names[spec].push_back(item.cell.Name());
      continue;
    }
    for (const runner::GridCell& cell : CostCells(spec)) {
      total_ns += CellSetupNs(spec, cell);
      names[spec].push_back(cell.Name());
    }
  }
  Line("setup_cells")
      .Add("setup_ns", total_ns)
      .AddRaw("cells", JsonLists(names))
      .Print();
}

// A fixed MI cell every traced run makes, whatever its workload: one shard
// of the first Figure 3 quick cell and its leakage test. It keeps the
// attacks and mi spans measured on workloads without MI cells.
void PrintProbeCell() {
  const scenarios::ChannelSpec* spec =
      scenarios::ChannelRegistry::Global().Find("fig3_kernel_channel");
  if (spec == nullptr) {
    throw std::runtime_error("scenario 'fig3_kernel_channel' is not registered");
  }
  const runner::GridSpec grid = spec->grids().front();
  const runner::GridCell cell = runner::ExpandGrid(grid).front();
  const runner::ShardPlan plan =
      runner::PlanShards(grid.rounds, cell.seed, grid.min_shard_rounds, grid.max_shards);
  std::uint64_t t0 = Recorder::NowNs();
  const mi::Observations obs =
      spec->cell_shard(cell, runner::Shard{0, plan.SeedFor(0), plan.shard_rounds[0]});
  const std::uint64_t shard_ns = Recorder::NowNs() - t0;
  t0 = Recorder::NowNs();
  const mi::LeakageResult leakage = mi::TestLeakage(obs, spec->leak_options);
  const std::uint64_t leak_ns = Recorder::NowNs() - t0;
  Line("probe_cell")
      .Add("cell", cell.Name())
      .Add("samples", static_cast<std::uint64_t>(leakage.samples))
      .Add("shard_ns", shard_ns)
      .Add("leak_ns", leak_ns)
      .Print();
}

// --- provenance --------------------------------------------------------------

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string_view(PERFBENCH_SANITIZE).size() > 0 ||
         std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string_view::npos;
#endif
}

// Timings are reported only from an optimised, non-sanitizer build.
bool TimingBuild() {
  const std::string_view type = PERFBENCH_BUILD_TYPE;
  return (type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel") &&
         !SanitizerBuild();
}

void PrintInfo() {
  std::map<std::string, std::vector<std::string>> workloads;
  for (const Workload& w : Workloads()) {
    workloads[w.name] = w.specs;
  }
  Line("info")
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("sanitizer", static_cast<std::uint64_t>(SanitizerBuild() ? 1 : 0))
      .Add("timing_build", static_cast<std::uint64_t>(TimingBuild() ? 1 : 0))
      .AddRaw("workloads", JsonLists(workloads))
      .Print();
}

// The benchmark fixes these knobs; a caller's environment must not change
// what a workload simulates or how.
void FixEnvironment() {
  for (const char* knob : {"TP_TAINT", "TP_INJECT", "TP_ADAPTIVE", "TP_ADAPTIVE_SIGNIFICANCE",
                           "TP_CELL_BUDGET_MS", "TP_NO_REPLAY", "TP_BENCH_LABEL"}) {
    const char* v = std::getenv(knob);
    if (v != nullptr && v[0] != '\0') {
      throw std::runtime_error(std::string(knob) + " is set; the benchmark runs without it");
    }
  }
  setenv("TP_QUICK", "1", 1);
  setenv("TP_THREADS", "1", 1);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "info") {
    PrintInfo();
    return 0;
  }
  std::string workload_name;
  std::string records;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      workload_name = argv[i + 1];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (arg == "--records") {
      records = argv[i + 1];
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || (mode != "setup" && records.empty()) ||
      (mode != "setup" && mode != "run" && mode != "trace")) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!TimingBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build%s; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE, SanitizerBuild() ? " with sanitizers" : "");
    return 3;
  }
  FixEnvironment();
  const runner::ExperimentRunner pool(1);
  const std::vector<Item> items = PlanItems(*workload, seed);
  if (mode == "setup") {
    Line("setup").Add("ready_ns", Recorder::NowNs()).Print();
    return 0;
  }

  // Pass k records into DIR/pass-k.json.
  auto records_path = [&](std::size_t k) {
    return records + "/pass-" + std::to_string(k) + ".json";
  };
  if (mode == "run") {
    const std::uint64_t start = Recorder::NowNs();
    const std::uint64_t budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t longest = 0;
    for (std::size_t k = 0; k == 0 || Recorder::NowNs() - start + longest <= budget_ns; ++k) {
      setenv("TP_BENCH_JSON", records_path(k).c_str(), 1);
      const PassStats stats = RunPass(items, pool);
      PrintPass(k, "untraced", records_path(k), stats);
      longest = std::max(longest, stats.wall_ns);
    }
    Line("rss").Add("peak_rss_kib", PeakRssKib()).Print();
    return 0;
  }

  setenv("TP_BENCH_JSON", records_path(0).c_str(), 1);
  const PassStats untraced = RunPass(items, pool);
  PrintPass(0, "untraced", records_path(0), untraced);
  setenv("TP_BENCH_JSON", records_path(1).c_str(), 1);
  const PassStats traced = TracePass(items, pool);
  PrintPass(1, "traced", records_path(1), traced);
  const auto [replay_on, replay_off] =
      ReplayPasses(items, pool, records_path(2), records_path(3));
  PrintPass(2, "replay on", records_path(2), replay_on);
  PrintPass(3, "replay off", records_path(3), replay_off);
  PrintProbeCell();
  PrintCellSetup(items);
  Line probes("layer_probes");
  for (const auto& [name, value] : RunLayerProbes()) {
    probes.Add(name, value);
  }
  probes.Print();
  return 0;
}

}  // namespace
}  // namespace tp::perfbench

int main(int argc, char** argv) {
  try {
    return tp::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
