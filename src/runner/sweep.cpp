#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "faults/fault.hpp"

namespace tp::runner {

namespace {

std::string FormatAxisValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// Effective per-cell watchdog budget: the explicit option wins, else the
// TP_CELL_BUDGET_MS environment variable, else off.
std::uint64_t EffectiveCellBudgetNs(const SweepOptions& options) {
  if (options.cell_budget_ns != 0) {
    return options.cell_budget_ns;
  }
  if (const char* ms = std::getenv("TP_CELL_BUDGET_MS");
      ms != nullptr && ms[0] != '\0') {
    return static_cast<std::uint64_t>(std::strtoull(ms, nullptr, 10)) * 1000000ull;
  }
  return 0;
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
    state.Mark(2, "cell exceeded its " + std::to_string(budget_ns / 1000000ull) +
                      " ms wall-time budget");
  }
  return out;
}

ShardOut RunShardIsolated(const GridCell& cell, const Shard& shard, CellState& state,
                          std::uint64_t budget_ns, const SweepEngine::CellShardFn& fn) {
  ShardOut out;
  out.measured = RunIsolated(cell, state, budget_ns, [&] { out.obs = fn(cell, shard); });
  return out;
}

// The grid's cells minus the ones the options skip.
std::vector<GridCell> CellsToRun(const GridSpec& spec, const SweepOptions& options) {
  std::vector<GridCell> cells = ExpandGrid(spec);
  if (options.skip_cells != nullptr) {
    std::erase_if(cells, [&](const GridCell& cell) {
      return options.skip_cells->count(cell.Name()) > 0;
    });
  }
  return cells;
}

// Sequential-stopping execution: shard-aligned waves with a barrier and a
// deterministic checkpoint pass between waves. Wave w runs shard w of every
// still-active cell; the checkpoint then asks, per cell, whether the
// accumulated prefix already resolves the verdict. Every stopping input —
// the prefix observations, the checkpoint seed (keyed on accumulated
// rounds) and the evaluation order (cell index) — is a pure function of the
// plan, so decisions are bit-identical at any TP_THREADS. Cells that never
// stop consume their full plan in the same shard order as the fixed path
// and therefore record bit-identical observations and MI.
std::vector<SweepCellResult> RunAdaptiveGrid(
    const ExperimentRunner& runner, const std::vector<GridCell>& cells,
    const std::vector<ShardPlan>& plans, std::size_t spec_rounds,
    const SweepEngine::CellShardFn& fn, const mi::LeakageOptions& leak_options,
    std::uint64_t budget_ns, const AdaptiveOptions& adaptive) {
  std::vector<CellState> states(cells.size());

  struct Progress {
    mi::StreamingMiEstimator stream;
    std::size_t shards_done = 0;
    std::size_t rounds_done = 0;
    bool stopped = false;
    bool has_interval = false;
    mi::MiInterval interval;
    bool has_leakage = false;
    mi::LeakageResult leakage;
  };
  std::vector<Progress> progress;
  progress.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    mi::StreamingOptions stream_options;
    stream_options.mi = leak_options.mi;
    stream_options.bootstrap_resamples = adaptive.bootstrap_resamples;
    // Bonferroni across this cell's possible checkpoints, so the
    // configured significance bounds the whole sequential procedure.
    const std::size_t num_shards = plans[c].num_shards();
    const std::size_t checkpoints = num_shards > adaptive.min_checkpoint_shards
                                        ? num_shards - adaptive.min_checkpoint_shards
                                        : 0;
    stream_options.significance =
        adaptive.significance /
        static_cast<double>(std::max<std::size_t>(checkpoints, 1));
    progress.push_back(Progress{mi::StreamingMiEstimator(stream_options)});
  }

  std::vector<SweepCellResult> results(cells.size());
  std::size_t max_waves = 0;
  for (const ShardPlan& plan : plans) {
    max_waves = std::max(max_waves, plan.num_shards());
  }

  struct WaveTask {
    std::size_t cell = 0;
    Shard shard;
  };
  struct CheckOut {
    mi::MiInterval interval;
    mi::LeakageResult leakage;
    int decision = 0;  // 0 continue, 1 stop (no leak), 2 stop (leak)
    std::uint64_t wall_ns = 0;
  };
  // The checkpoint seed is keyed on the cell seed and *accumulated rounds*
  // — never shard arrival order — so the bootstrap (and the decision) is a
  // pure function of the deterministic data prefix.
  auto checkpoint_seed = [&](std::size_t c) {
    return SplitMix64(cells[c].seed ^
                      SplitMix64(0xADA9717E5EEDull + progress[c].rounds_done));
  };

  for (std::size_t w = 0; w < max_waves; ++w) {
    std::vector<WaveTask> tasks;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (!progress[c].stopped && w < plans[c].num_shards()) {
        tasks.push_back({c, Shard{w, plans[c].SeedFor(w), plans[c].shard_rounds[w]}});
      }
    }
    if (tasks.empty()) {
      break;
    }
    std::vector<std::size_t> claim_order(tasks.size());
    for (std::size_t i = 0; i < claim_order.size(); ++i) {
      claim_order[i] = i;
    }
    std::stable_sort(claim_order.begin(), claim_order.end(),
                     [&tasks](std::size_t a, std::size_t b) {
                       return tasks[a].shard.rounds > tasks[b].shard.rounds;
                     });
    std::vector<ShardOut> outs =
        runner.MapScheduled(tasks.size(), claim_order, [&](std::size_t i) {
          const std::size_t c = tasks[i].cell;
          return RunShardIsolated(cells[c], tasks[i].shard, states[c], budget_ns, fn);
        });
    // Barrier reached: fold this wave into each cell's prefix, in cell
    // order (outs are in task-index order regardless of thread count).
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::size_t c = tasks[i].cell;
      results[c].wall_ns += outs[i].measured.wall_ns;
      results[c].contract.Merge(outs[i].measured.contract);
      if (states[c].code.load() == 0) {
        progress[c].stream.IngestAll(outs[i].obs);
        ++progress[c].shards_done;
        progress[c].rounds_done += tasks[i].shard.rounds;
      }
    }
    // Checkpoint pass over the cells that can still stop (never the last
    // shard — a full-budget cell is the fixed path's bit-identical twin).
    std::vector<std::size_t> eligible;
    for (const WaveTask& task : tasks) {
      const std::size_t c = task.cell;
      if (states[c].code.load() == 0 && !progress[c].stopped &&
          progress[c].shards_done >= adaptive.min_checkpoint_shards &&
          progress[c].shards_done < plans[c].num_shards()) {
        eligible.push_back(c);
      }
    }
    std::vector<CheckOut> checks = runner.Map(eligible.size(), [&](std::size_t k) {
      const std::size_t c = eligible[k];
      CheckOut out;
      std::uint64_t t0 = bench::Recorder::NowNs();
      out.interval = progress[c].stream.KdeCheckpoint(checkpoint_seed(c));
      // The CI resolves the verdict; the full shuffle test over the same
      // prefix must then *agree* before the cell stops, so a recorded
      // early verdict is always the real test's verdict on real data.
      if (out.interval.ci_high < adaptive.threshold_bits) {
        out.leakage = mi::TestLeakage(progress[c].stream.observations(), leak_options);
        if (!out.leakage.leak) {
          out.decision = 1;
        }
      } else if (out.interval.ci_low > adaptive.threshold_bits) {
        out.leakage = mi::TestLeakage(progress[c].stream.observations(), leak_options);
        // A leak stop must clear the shuffle baseline with the whole
        // interval, not just the point estimate: M0 on a short prefix is
        // large, and a noisy borderline cell whose full-budget verdict is
        // "no leak" can transiently show M > M0 there.
        if (out.leakage.leak && out.interval.ci_low > out.leakage.m0_bits) {
          out.decision = 2;
        }
      }
      out.wall_ns = bench::Recorder::NowNs() - t0;
      return out;
    });
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      const std::size_t c = eligible[k];
      results[c].wall_ns += checks[k].wall_ns;
      progress[c].interval = checks[k].interval;
      progress[c].has_interval = true;
      if (checks[k].decision != 0) {
        progress[c].stopped = true;
        progress[c].leakage = checks[k].leakage;
        progress[c].has_leakage = true;
      }
    }
  }

  // Full-budget cells: the final leakage test (bit-identical to the fixed
  // path — same observations, same options) plus a final recorded CI.
  struct FinalOut {
    mi::LeakageResult leakage;
    mi::MiInterval interval;
    std::uint64_t wall_ns = 0;
  };
  std::vector<FinalOut> finals = runner.Map(cells.size(), [&](std::size_t c) {
    FinalOut out;
    if (states[c].code.load() != 0 || progress[c].stopped) {
      return out;
    }
    std::uint64_t t0 = bench::Recorder::NowNs();
    out.leakage = mi::TestLeakage(progress[c].stream.observations(), leak_options);
    out.interval = progress[c].stream.KdeCheckpoint(checkpoint_seed(c));
    out.wall_ns = bench::Recorder::NowNs() - t0;
    return out;
  });

  for (std::size_t c = 0; c < cells.size(); ++c) {
    SweepCellResult& r = results[c];
    r.cell = cells[c];
    r.rounds = spec_rounds;
    r.shards = plans[c].num_shards();
    r.adaptive = true;
    r.significance = adaptive.significance;
    r.rounds_run = progress[c].rounds_done;
    if (states[c].Failed(r)) {
      continue;
    }
    if (!progress[c].stopped) {
      r.wall_ns += finals[c].wall_ns;
      progress[c].leakage = finals[c].leakage;
      progress[c].interval = finals[c].interval;
      progress[c].has_interval = true;
    }
    r.observations = progress[c].stream.observations();
    r.leakage = progress[c].leakage;
    r.stopped_early = progress[c].stopped;
    if (progress[c].has_interval) {
      r.mi_ci_low = progress[c].interval.ci_low;
      r.mi_ci_high = progress[c].interval.ci_high;
      r.ci_method = progress[c].interval.method;
    }
  }
  return results;
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
            cell.index = cells.size();
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

AdaptiveOptions EffectiveAdaptive(const SweepOptions& options) {
  AdaptiveOptions adaptive = options.adaptive;
  if (!adaptive.enabled) {
    if (const char* env = std::getenv("TP_ADAPTIVE");
        env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
      adaptive.enabled = true;
    }
  }
  if (const char* sig = std::getenv("TP_ADAPTIVE_SIGNIFICANCE");
      sig != nullptr && sig[0] != '\0') {
    double v = std::atof(sig);
    if (v > 0.0 && v < 1.0) {
      adaptive.significance = v;
    }
  }
  // A fault-injection run measures whether a broken defense is *detected*;
  // the mutant must face the full round budget, not a stopping rule tuned
  // for healthy channels.
  if (adaptive.enabled && faults::FaultInjectionEnabled()) {
    adaptive.enabled = false;
  }
  return adaptive;
}

std::vector<SweepCellResult> SweepEngine::RunChannelGrid(
    const GridSpec& spec, const CellShardFn& fn, const mi::LeakageOptions& leak_options,
    const SweepOptions& options) const {
  const std::vector<GridCell> cells = CellsToRun(spec, options);
  const std::uint64_t budget_ns = EffectiveCellBudgetNs(options);

  std::vector<ShardPlan> plans;
  plans.reserve(cells.size());
  for (const GridCell& cell : cells) {
    plans.push_back(
        PlanShards(spec.rounds, cell.seed, spec.min_shard_rounds, spec.max_shards));
  }

  // Opt-in sequential stopping takes the wave-based path; fixed rounds
  // (the default) keep the flat-pool path below, bit-identical to every
  // earlier release.
  if (const AdaptiveOptions adaptive = EffectiveAdaptive(options); adaptive.enabled) {
    return RunAdaptiveGrid(runner_, cells, plans, spec.rounds, fn, leak_options,
                           budget_ns, adaptive);
  }

  // Flatten every (cell, shard) into one pool so a grid of small cells
  // still keeps all host threads busy.
  struct ShardTask {
    std::size_t cell = 0;
    Shard shard;
  };
  std::vector<ShardTask> tasks;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t i = 0; i < plans[c].num_shards(); ++i) {
      tasks.push_back({c, Shard{i, plans[c].SeedFor(i), plans[c].shard_rounds[i]}});
    }
  }
  std::vector<CellState> states(cells.size());
  // Longest-first claim order: shards with the most rounds are picked up
  // first, so the round ranges of one slow cell spread across the pool
  // instead of queueing behind the rest of the grid. Scheduling only —
  // every shard's seed, rounds and result slot are fixed by the plan above,
  // so the merged observations stay bit-identical at any TP_THREADS.
  std::vector<std::size_t> claim_order(tasks.size());
  for (std::size_t i = 0; i < claim_order.size(); ++i) {
    claim_order[i] = i;
  }
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     return tasks[a].shard.rounds > tasks[b].shard.rounds;
                   });
  std::vector<ShardOut> outs = runner_.MapScheduled(
      tasks.size(), claim_order, [&](std::size_t i) {
    const std::size_t c = tasks[i].cell;
    return RunShardIsolated(cells[c], tasks[i].shard, states[c], budget_ns, fn);
  });

  std::vector<SweepCellResult> results(cells.size());
  std::size_t next = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SweepCellResult& r = results[c];
    r.cell = cells[c];
    r.rounds = spec.rounds;
    r.rounds_run = spec.rounds;
    r.shards = plans[c].num_shards();
    const bool failed = states[c].Failed(r);
    std::vector<mi::Observations> parts;
    parts.reserve(r.shards);
    for (std::size_t i = 0; i < r.shards; ++i, ++next) {
      if (!failed) {
        parts.push_back(std::move(outs[next].obs));
      }
      r.wall_ns += outs[next].measured.wall_ns;
      r.contract.Merge(outs[next].measured.contract);
    }
    if (!failed) {
      r.observations = MergeObservations(parts);
    }
  }

  // The per-cell leakage tests are independent too; fan them out and fold
  // their work time into the owning cell. Non-ok cells have no
  // observations to test.
  struct LeakOut {
    mi::LeakageResult leakage;
    std::uint64_t wall_ns = 0;
  };
  std::vector<LeakOut> leaks = runner_.Map(results.size(), [&](std::size_t c) {
    LeakOut out;
    if (!results[c].ok()) {
      return out;
    }
    std::uint64_t t0 = bench::Recorder::NowNs();
    out.leakage = mi::TestLeakage(results[c].observations, leak_options);
    out.wall_ns = bench::Recorder::NowNs() - t0;
    return out;
  });
  for (std::size_t c = 0; c < results.size(); ++c) {
    if (results[c].ok()) {
      results[c].leakage = leaks[c].leakage;
    }
    results[c].wall_ns += leaks[c].wall_ns;
  }
  return results;
}

std::vector<SweepCellResult> SweepEngine::RunCostGrid(const GridSpec& spec, const CostCellFn& fn,
                                                      const SweepOptions& options) const {
  const std::vector<GridCell> cells = CellsToRun(spec, options);
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
      r.rounds = r.rounds_run = out.rounds;
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
      if (r.adaptive) {
        // Stopping metadata is emitted only for adaptive cells, so a
        // fixed-rounds sweep's records stay byte-identical to earlier
        // baselines (same pattern as the contract_* fields).
        record.adaptive = true;
        record.rounds_run = r.rounds_run;
        record.rounds_budget = r.rounds;
        record.stopped_early = r.stopped_early ? 1 : 0;
        record.mi_ci_low = r.mi_ci_low;
        record.mi_ci_high = r.mi_ci_high;
        record.significance = r.significance;
        record.ci_method = r.ci_method;
      }
      ApplyContract(record, r.contract);
    }
    recorder.Add(std::move(record));
  }
}

}  // namespace tp::runner
