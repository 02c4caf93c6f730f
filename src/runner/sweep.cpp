#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "faults/fault.hpp"

namespace tp::runner {

namespace {

constexpr std::uint64_t kNsPerMs = 1'000'000;

std::string FormatAxisValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// Effective per-cell watchdog budget: the explicit option wins, else the
// TP_CELL_BUDGET_MS environment variable, else off. A malformed variable
// throws rather than leave the watchdog off or wrapped.
std::uint64_t EffectiveCellBudgetNs(const SweepOptions& options) {
  if (options.cell_budget_ns != 0) {
    return options.cell_budget_ns;
  }
  const char* env = std::getenv("TP_CELL_BUDGET_MS");
  if (env == nullptr || env[0] == '\0') {
    return 0;
  }
  const std::optional<std::uint64_t> ms = ParseCellBudgetMs(env);
  if (!ms) {
    throw std::invalid_argument(std::string("TP_CELL_BUDGET_MS='") + env +
                                "' is not a positive whole number of milliseconds");
  }
  return *ms * kNsPerMs;
}

// Per-cell crash-isolation state shared by that cell's shards. Mark is
// first-wins, so the earliest failure names the cell's status; later
// shards of a doomed cell early-return without running their bodies.
struct CellState {
  std::atomic<int> code{0};  // 0 ok, 1 failed, 2 timeout
  std::atomic<std::uint64_t> wall{0};
  std::mutex error_mu;
  std::string error;  // written under error_mu; read once the sweep joined

  void Mark(int failure, const std::string& message) {
    int expected = 0;
    if (code.compare_exchange_strong(expected, failure)) {
      std::lock_guard<std::mutex> lk(error_mu);
      error = message;
    }
  }

  // Copies a failure onto the cell's result; false when the cell is healthy.
  bool Failed(SweepCellResult& r) const {
    const int c = code.load();
    if (c == 0) {
      return false;
    }
    r.status = c == 2 ? "timeout" : "failed";
    r.error = error;
    return true;
  }
};

// What the harness measured around one body run.
struct Isolated {
  std::uint64_t wall_ns = 0;
  hw::ContractTally contract;
};

struct ShardOut {
  mi::Observations obs;
  Isolated measured;
};

// The crash-isolation harness every cell body runs in, MI shard or cost
// cell: ambient fault seed, harness self-test sites, contract capture,
// first-wins failure marking and the per-cell wall-time watchdog.
Isolated RunIsolated(const GridCell& cell, CellState& state, std::uint64_t budget_ns,
                     const std::function<void()>& body) {
  Isolated out;
  if (state.code.load() != 0) {
    return out;  // the cell already failed or timed out; don't pile on
  }
  std::uint64_t t0 = bench::Recorder::NowNs();
  // Publish the cell's coordinate-keyed seed so fault sites latched by
  // structures this body builds fire deterministically per (site, cell)
  // at any host thread count.
  faults::ScopedCellSeed ambient(cell.seed);
  const std::string cell_name = cell.Name();
  try {
    // Harness self-test sites: a deliberate body exception and a
    // deliberate budget overrun, used by the mutation sweep and tests to
    // prove the crash-isolation path itself works.
    faults::FaultSite fault_throw = faults::FaultSite::For("harness.cell_throw");
    if (fault_throw.MatchesCell(cell_name) && fault_throw.FireAlways()) {
      throw std::runtime_error("injected fault: harness.cell_throw");
    }
    faults::FaultSite fault_stall = faults::FaultSite::For("harness.cell_stall");
    if (budget_ns > 0 && fault_stall.MatchesCell(cell_name) &&
        fault_stall.FireAlways()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(budget_ns + 20'000'000ull));
    }
    hw::ContractCapture capture;
    body();
    out.contract = capture.Take();
  } catch (const std::exception& e) {
    state.Mark(1, e.what());
  } catch (...) {
    state.Mark(1, "unknown exception");
  }
  out.wall_ns = bench::Recorder::NowNs() - t0;
  const std::uint64_t total = state.wall.fetch_add(out.wall_ns) + out.wall_ns;
  if (budget_ns > 0 && total > budget_ns) {
    state.Mark(2, "cell exceeded its " + std::to_string(budget_ns / kNsPerMs) +
                      " ms wall-time budget");
  }
  return out;
}

// Copies a captured contract tally onto a record's contract_* fields. A
// no-op when taint tracking is off, so v2-shaped records stay v2-shaped; a
// zero-switch cell with taint on records as (vacuously) clean.
void ApplyContract(bench::BenchRecord& record, const hw::ContractTally& tally) {
  if (!hw::TaintTrackingEnabled()) {
    return;
  }
  record.contract_clean = tally.clean() ? 1 : 0;
  record.contract_switches = tally.switches;
  record.contract_violations = tally.violations;
  record.contract_whitelisted = tally.whitelisted;
  record.contract_first = tally.has_first ? hw::ToString(tally.first) : "";
}

}  // namespace

std::string GridCell::CoordKey() const {
  std::string key;
  key += platform;
  key += "|";
  key += variant;
  key += "|ts=";
  key += FormatAxisValue(timeslice_ms);
  key += "|cf=";
  key += FormatAxisValue(colour_fraction);
  key += "|";
  key += mode;
  return key;
}

std::string GridCell::Name() const {
  std::string name;
  auto append = [&name](const std::string& part) {
    if (part.empty()) {
      return;
    }
    if (!name.empty()) {
      name += "/";
    }
    name += part;
  };
  append(platform);
  append(variant);
  if (timeslice_ms > 0.0) {
    append("ts=" + FormatAxisValue(timeslice_ms) + "ms");
  }
  if (colour_fraction != 1.0) {
    append("cf=" + FormatAxisValue(colour_fraction));
  }
  append(mode);
  return name;
}

std::vector<GridCell> ExpandGrid(const GridSpec& spec) {
  std::vector<GridCell> cells;
  cells.reserve(spec.num_cells());
  for (const std::string& platform : spec.platforms) {
    for (const std::string& variant : spec.variants) {
      for (double ts : spec.timeslices_ms) {
        for (double cf : spec.colour_fractions) {
          for (const std::string& mode : spec.modes) {
            GridCell cell;
            cell.platform = platform;
            cell.variant = variant;
            cell.timeslice_ms = ts;
            cell.colour_fraction = cf;
            cell.mode = mode;
            cell.seed = SplitMix64(spec.root_seed ^ SplitMix64(Fnv1a64(cell.CoordKey())));
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

GridSpec OneCellGrid(const GridSpec& grid, std::string_view cell_name) {
  const std::vector<GridCell> cells = ExpandGrid(grid);
  auto it = std::find_if(cells.begin(), cells.end(),
                         [&](const GridCell& cell) { return cell.Name() == cell_name; });
  if (it == cells.end()) {
    throw std::invalid_argument("grid has no cell '" + std::string(cell_name) + "'");
  }
  GridSpec one = grid;
  one.platforms = {it->platform};
  one.variants = {it->variant};
  one.timeslices_ms = {it->timeslice_ms};
  one.colour_fractions = {it->colour_fraction};
  one.modes = {it->mode};
  const GridCell narrowed = ExpandGrid(one).front();
  if (narrowed.seed != it->seed || narrowed.Name() != it->Name()) {
    throw std::logic_error("one-cell grid does not reproduce cell '" + it->Name() + "'");
  }
  return one;
}

std::optional<std::uint64_t> ParseCellBudgetMs(std::string_view text) {
  return ParsePositiveInt(text, std::numeric_limits<std::uint64_t>::max() / kNsPerMs);
}

std::vector<SweepCellResult> SweepEngine::RunChannelGrid(
    const GridSpec& spec, const CellShardFn& fn, const mi::LeakageOptions& leak_options,
    const SweepOptions& options) const {
  const std::vector<GridCell> cells = ExpandGrid(spec);
  const std::uint64_t budget_ns = EffectiveCellBudgetNs(options);

  struct ShardTask {
    std::size_t cell = 0;
    Shard shard;
  };
  std::vector<ShardTask> tasks;
  std::vector<SweepCellResult> results(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ShardPlan plan =
        PlanShards(spec.rounds, cells[c].seed, spec.min_shard_rounds, spec.max_shards);
    SweepCellResult& r = results[c];
    r.cell = cells[c];
    r.rounds = spec.rounds;
    r.shards = plan.num_shards();
    for (std::size_t i = 0; i < plan.num_shards(); ++i) {
      tasks.push_back({c, Shard{i, plan.SeedFor(i), plan.shard_rounds[i]}});
    }
  }
  std::vector<CellState> states(cells.size());

  // Longest-first claim order: shards with the most rounds are picked up
  // first, so the round ranges of one slow cell spread across the pool
  // instead of queueing behind the rest of the grid. Scheduling only —
  // every shard's seed, rounds and result slot are fixed by the plan, so
  // the merged observations stay bit-identical at any TP_THREADS.
  std::vector<std::size_t> claim_order(tasks.size());
  for (std::size_t i = 0; i < claim_order.size(); ++i) {
    claim_order[i] = i;
  }
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     return tasks[a].shard.rounds > tasks[b].shard.rounds;
                   });
  std::vector<ShardOut> outs =
      runner_.MapScheduled(tasks.size(), claim_order, [&](std::size_t i) {
        const std::size_t c = tasks[i].cell;
        ShardOut out;
        out.measured = RunIsolated(cells[c], states[c], budget_ns,
                                   [&] { out.obs = fn(cells[c], tasks[i].shard); });
        return out;
      });

  // Fold the shards into their cells in task order (outs are in task-index
  // order regardless of thread count). Non-ok cells carry no observations.
  std::vector<std::vector<mi::Observations>> parts(cells.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    SweepCellResult& r = results[tasks[i].cell];
    r.wall_ns += outs[i].measured.wall_ns;
    r.contract.Merge(outs[i].measured.contract);
    parts[tasks[i].cell].push_back(std::move(outs[i].obs));
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!states[c].Failed(results[c])) {
      results[c].observations = MergeObservations(parts[c]);
    }
  }

  // The leakage test for every healthy cell, fanned out over the pool.
  struct Verdict {
    mi::LeakageResult leakage;
    std::uint64_t wall_ns = 0;
  };
  std::vector<Verdict> verdicts = runner_.Map(results.size(), [&](std::size_t c) {
    Verdict out;
    if (!results[c].ok()) {
      return out;
    }
    const std::uint64_t t0 = bench::Recorder::NowNs();
    out.leakage = mi::TestLeakage(results[c].observations, leak_options);
    out.wall_ns = bench::Recorder::NowNs() - t0;
    return out;
  });
  for (std::size_t c = 0; c < results.size(); ++c) {
    results[c].wall_ns += verdicts[c].wall_ns;
    if (results[c].ok()) {
      results[c].leakage = verdicts[c].leakage;
    }
  }
  return results;
}

std::vector<SweepCellResult> SweepEngine::RunCostGrid(const GridSpec& spec, const CostCellFn& fn,
                                                      const SweepOptions& options) const {
  const std::vector<GridCell> cells = ExpandGrid(spec);
  const std::uint64_t budget_ns = EffectiveCellBudgetNs(options);
  std::vector<CellState> states(cells.size());
  return runner_.Map(cells.size(), [&](std::size_t c) {
    SweepCellResult r;
    r.cell = cells[c];
    r.shards = 1;
    CostCell out;
    const Isolated run = RunIsolated(cells[c], states[c], budget_ns, [&] { out = fn(cells[c]); });
    r.wall_ns = run.wall_ns;
    r.contract = run.contract;
    if (!states[c].Failed(r)) {
      r.rounds = out.rounds;
      r.cost = std::move(out);
    }
    return r;
  });
}

void RecordSweep(bench::Recorder& recorder, const ExperimentRunner& runner,
                 const std::vector<SweepCellResult>& results) {
  for (const SweepCellResult& r : results) {
    bench::BenchRecord record;
    record.cell = r.cell.Name();
    record.rounds = r.rounds;
    record.wall_ns = r.wall_ns;
    record.threads = runner.threads();
    record.shards = r.shards;
    if (!r.ok()) {
      // Crash-isolated cell: no verdict or metrics; mi/m0 stay NaN (absent).
      record.cell_status = r.status;
      record.cell_error = r.error;
    } else if (r.cost) {
      record.samples = r.cost->samples;
      record.metrics = r.cost->metrics;
      ApplyContract(record, r.contract);
    } else {
      record.samples = r.leakage.samples;
      record.mi_bits = r.leakage.mi_bits;
      record.m0_bits = r.leakage.m0_bits;
      ApplyContract(record, r.contract);
    }
    recorder.Add(std::move(record));
  }
}

}  // namespace tp::runner
