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
#include "mi/interval.hpp"

namespace tp::runner {

namespace {

// Sequential stopping checks no cell before this many shards have
// accumulated: a 1-shard prefix is too noisy to bound usefully.
constexpr std::size_t kMinCheckpointShards = 2;

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
  const AdaptiveOptions adaptive = EffectiveAdaptive(options);

  std::vector<ShardPlan> plans;
  plans.reserve(cells.size());
  std::vector<SweepCellResult> results(cells.size());
  std::size_t waves = adaptive.enabled ? 0 : 1;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    plans.push_back(
        PlanShards(spec.rounds, cells[c].seed, spec.min_shard_rounds, spec.max_shards));
    SweepCellResult& r = results[c];
    r.cell = cells[c];
    r.rounds = spec.rounds;
    r.shards = plans[c].num_shards();
    if (adaptive.enabled) {
      r.adaptive = true;
      r.significance = adaptive.significance;
      waves = std::max(waves, r.shards);
    }
  }
  std::vector<CellState> states(cells.size());
  // Each cell's folded prefix: the shard outputs of every wave it came
  // through healthy, in shard order.
  std::vector<std::vector<mi::Observations>> parts(cells.size());

  // The bootstrap CI over a cell's prefix. Its seed is keyed on the cell
  // seed and *accumulated rounds* — never shard arrival order — so the
  // interval, and every stopping decision, is a pure function of the
  // deterministic data prefix. The significance is Bonferroni-corrected
  // across the cell's possible checkpoints, so the configured level bounds
  // the whole sequential procedure.
  auto interval = [&](std::size_t c, const mi::Observations& prefix) {
    const std::size_t shards = results[c].shards;
    const std::size_t checkpoints =
        shards > kMinCheckpointShards ? shards - kMinCheckpointShards : 1;
    return mi::BootstrapInterval(
        prefix, leak_options.mi, adaptive.significance / static_cast<double>(checkpoints),
        adaptive.bootstrap_resamples,
        SplitMix64(cells[c].seed ^ SplitMix64(0xADA9717E5EEDull + results[c].rounds_run)));
  };
  auto record_interval = [](SweepCellResult& r, const mi::MiInterval& ci) {
    r.mi_ci_low = ci.ci_low;
    r.mi_ci_high = ci.ci_high;
    r.ci_method = "bootstrap";
  };
  // What a checkpoint or the final pass computed for one cell.
  struct Check {
    mi::MiInterval interval;
    mi::LeakageResult leakage;
    bool stop = false;
    std::uint64_t wall_ns = 0;
  };

  // Fixed rounds run one wave holding every shard of every cell; sequential
  // stopping runs wave w with shard w of every cell still active, then a
  // checkpoint.
  for (std::size_t w = 0; w < waves; ++w) {
    struct ShardTask {
      std::size_t cell = 0;
      Shard shard;
    };
    std::vector<ShardTask> tasks;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (results[c].stopped_early) {
        continue;
      }
      const std::size_t n = plans[c].num_shards();
      const std::size_t end = adaptive.enabled ? std::min(w + 1, n) : n;
      for (std::size_t i = adaptive.enabled ? w : 0; i < end; ++i) {
        tasks.push_back({c, Shard{i, plans[c].SeedFor(i), plans[c].shard_rounds[i]}});
      }
    }
    if (tasks.empty()) {
      break;
    }
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
    // Barrier reached: fold the wave into each cell's prefix in task order
    // (outs are in task-index order regardless of thread count).
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      SweepCellResult& r = results[tasks[i].cell];
      r.wall_ns += outs[i].measured.wall_ns;
      r.contract.Merge(outs[i].measured.contract);
      if (states[tasks[i].cell].code.load() == 0) {
        parts[tasks[i].cell].push_back(std::move(outs[i].obs));
        r.rounds_run += tasks[i].shard.rounds;
      }
    }
    if (!adaptive.enabled) {
      continue;
    }
    // Checkpoint pass over the healthy cells of this wave, never before
    // kMinCheckpointShards and never after the last shard: a full-budget
    // cell takes the final test below, as a fixed sweep does.
    std::vector<std::size_t> eligible;
    for (const ShardTask& task : tasks) {
      const std::size_t done = parts[task.cell].size();
      if (states[task.cell].code.load() == 0 && done >= kMinCheckpointShards &&
          done < plans[task.cell].num_shards()) {
        eligible.push_back(task.cell);
      }
    }
    std::vector<Check> checks = runner_.Map(eligible.size(), [&](std::size_t k) {
      const std::size_t c = eligible[k];
      Check out;
      const std::uint64_t t0 = bench::Recorder::NowNs();
      const mi::Observations prefix = MergeObservations(parts[c]);
      out.interval = interval(c, prefix);
      // The CI resolves the verdict; the full shuffle test over the same
      // prefix must then *agree* before the cell stops, so a recorded
      // early verdict is always the real test's verdict on real data.
      if (out.interval.ci_high < mi::kResolutionBits) {
        out.leakage = mi::TestLeakage(prefix, leak_options);
        out.stop = !out.leakage.leak;
      } else if (out.interval.ci_low > mi::kResolutionBits) {
        out.leakage = mi::TestLeakage(prefix, leak_options);
        // A leak stop must clear the shuffle baseline with the whole
        // interval, not just the point estimate: M0 on a short prefix is
        // large, and a noisy borderline cell whose full-budget verdict is
        // "no leak" can transiently show M > M0 there.
        out.stop = out.leakage.leak && out.interval.ci_low > out.leakage.m0_bits;
      }
      out.wall_ns = bench::Recorder::NowNs() - t0;
      return out;
    });
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      SweepCellResult& r = results[eligible[k]];
      r.wall_ns += checks[k].wall_ns;
      if (checks[k].stop) {
        r.stopped_early = true;
        r.leakage = checks[k].leakage;
        record_interval(r, checks[k].interval);
      }
    }
  }

  // After the last wave: the leakage test for every healthy cell that did
  // not stop early — the same observations and options as a fixed sweep,
  // so a full-budget adaptive cell matches it bit for bit — plus its final
  // interval under sequential stopping. Non-ok cells carry no observations.
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!states[c].Failed(results[c])) {
      results[c].observations = MergeObservations(parts[c]);
    }
  }
  std::vector<Check> finals = runner_.Map(results.size(), [&](std::size_t c) {
    Check out;
    if (!results[c].ok() || results[c].stopped_early) {
      return out;
    }
    const std::uint64_t t0 = bench::Recorder::NowNs();
    out.leakage = mi::TestLeakage(results[c].observations, leak_options);
    if (adaptive.enabled) {
      out.interval = interval(c, results[c].observations);
    }
    out.wall_ns = bench::Recorder::NowNs() - t0;
    return out;
  });
  for (std::size_t c = 0; c < results.size(); ++c) {
    SweepCellResult& r = results[c];
    r.wall_ns += finals[c].wall_ns;
    if (r.ok() && !r.stopped_early) {
      r.leakage = finals[c].leakage;
      if (adaptive.enabled) {
        record_interval(r, finals[c].interval);
      }
    }
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
        // Stopping metadata is set (stopped_early >= 0) only on adaptive
        // cells, so a fixed-rounds sweep's records stay byte-identical to
        // earlier baselines (same pattern as the contract_* fields).
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
