// tp_bench — the unified paper-reproduction bench driver.
//
// Every experiment is a registered scenario (src/scenarios/); this CLI
// enumerates, filters and runs them through the shared parallel runner and
// recorder. One process runs, times and records a whole sweep: every cell
// is crash-isolated, a channel body that throws fails only that channel,
// and each channel's records reach the results file as soon as it
// finishes. A recorded label is one whole run; tp_bench_diff judges it
// against a baseline label, which fails any baseline cell the run did not
// record.
//
//   tp_bench --list                 # registered channel names, one per line
//   tp_bench --list-md              # README markdown channel table
//   tp_bench --list-faults          # registered fault-injection sites
//   tp_bench                        # run every channel
//   tp_bench --only fig5_flush_channel [--only ...]   # subset (a repeated
//                                   # name runs and records once)
//   tp_bench --grid quick|full      # force TP_QUICK on/off for this run
//   tp_bench --label L              # TP_BENCH_LABEL for recorded results
//   tp_bench --json PATH            # TP_BENCH_JSON results file
//   tp_bench --inject SITE[:PARAM]  # break one defense (mutation testing)
//   tp_bench --cell-budget-ms N     # per-cell watchdog (cell_status=timeout;
//                                   # TP_CELL_BUDGET_MS, same format)
//   tp_bench --quiet                # suppress the scenario tables
//
// A recording run needs a non-empty label that the results file does not
// hold yet, checked before any channel runs by reading the file with the
// loader's own reader, so a file tp_bench_diff would refuse is refused here
// too. Every run ends with the channel summary: per channel its status,
// wall seconds, simulated accesses and branches and accesses/second,
// slowest first, then a TOTAL row.
//
// Exit codes: 0 all selected channels passed; 1 a channel body threw or
// its records were not written; 2 bad usage / unknown channel name /
// malformed TP_CELL_BUDGET_MS or TP_THREADS / missing or already recorded
// label / a results file the loader refuses; 3 every channel ran but some
// cell was crash-isolated (cell_status != ok in the recorded results).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "hw/core.hpp"
#include "runner/recorder.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/driver.hpp"
#include "scenarios/scenario.hpp"
#include "trajectory/trajectory.hpp"

namespace {

constexpr const char* kUsage =
    "usage: tp_bench [--list | --list-md | --list-faults] [--only NAME]...\n"
    "                [--grid quick|full] [--label LABEL] [--json PATH]\n"
    "                [--inject SITE[:PARAM]] [--cell-budget-ms N] [--quiet]\n";

// One channel's line of the summary.
struct ChannelRow {
  std::string channel;
  std::string status;  // "pass", "threw", "records not written" or "N cell(s) failed"
  std::uint64_t wall_ns = 0;
  tp::hw::SimTally sim;
};

// The channel summary, slowest first, then a TOTAL row: the run's verdicts
// and its host simulation throughput in one table.
void PrintSummary(std::vector<ChannelRow> rows, std::size_t threads) {
  std::stable_sort(rows.begin(), rows.end(), [](const ChannelRow& a, const ChannelRow& b) {
    return a.wall_ns > b.wall_ns;
  });
  std::printf("\n--- tp_bench channel summary (%zu thread%s, slowest first) ---\n", threads,
              threads == 1 ? "" : "s");
  std::printf("%-28s %-19s %9s %16s %14s %12s\n", "channel", "status", "wall s",
              "sim accesses", "sim branches", "accesses/s");
  ChannelRow total{.channel = "TOTAL"};
  auto print = [](const ChannelRow& row) {
    const double secs = static_cast<double>(row.wall_ns) / 1e9;
    const double rate = secs > 0.0 ? static_cast<double>(row.sim.accesses) / secs : 0.0;
    std::printf("%-28s %-19s %9.3f %16llu %14llu %12.3g\n", row.channel.c_str(),
                row.status.c_str(), secs, static_cast<unsigned long long>(row.sim.accesses),
                static_cast<unsigned long long>(row.sim.branches), rate);
  };
  for (const ChannelRow& row : rows) {
    print(row);
    total.wall_ns += row.wall_ns;
    total.sim.accesses += row.sim.accesses;
    total.sim.branches += row.sim.branches;
  }
  print(total);
}

void PrintFaultSites() {
  std::printf("%-20s %-8s %-16s %s\n", "site", "layer", "detector", "description");
  for (const tp::faults::FaultSiteInfo& info : tp::faults::FaultSites()) {
    std::printf("%-20s %-8s %-16s %s\n", info.name, info.layer, info.detector,
                info.description);
    if (info.param != tp::faults::FaultParam::kNone) {
      std::printf("%-20s %-8s %-16s param: %s\n", "", "", "", info.param_doc);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool list_md = false;
  bool list_faults = false;
  bool quiet = false;
  std::string inject;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tp_bench: %s needs a value\n%s", arg.c_str(), kUsage);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--list-md") {
      list_md = true;
    } else if (arg == "--list-faults") {
      list_faults = true;
    } else if (arg == "--only") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      only.emplace_back(v);
    } else if (arg == "--grid") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      if (std::strcmp(v, "quick") == 0) {
        setenv("TP_QUICK", "1", 1);
      } else if (std::strcmp(v, "full") == 0) {
        setenv("TP_QUICK", "0", 1);
      } else {
        std::fprintf(stderr, "tp_bench: --grid must be 'quick' or 'full'\n%s", kUsage);
        return 2;
      }
    } else if (arg == "--label") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      setenv("TP_BENCH_LABEL", v, 1);
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      setenv("TP_BENCH_JSON", v, 1);
    } else if (arg == "--inject") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      inject = v;
    } else if (arg == "--cell-budget-ms") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      if (!tp::runner::ParseCellBudgetMs(v)) {
        std::fprintf(stderr, "tp_bench: --cell-budget-ms must be a positive integer\n%s", kUsage);
        return 2;
      }
      setenv("TP_CELL_BUDGET_MS", v, 1);
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "tp_bench: unknown argument '%s'\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }
  // An inherited budget takes the flag's check; unset or empty means off.
  if (const char* budget = std::getenv("TP_CELL_BUDGET_MS");
      budget != nullptr && budget[0] != '\0' && !tp::runner::ParseCellBudgetMs(budget)) {
    std::fprintf(stderr, "tp_bench: TP_CELL_BUDGET_MS='%s' must be a positive integer\n",
                 budget);
    return 2;
  }
  // A malformed TP_THREADS is bad usage, never "all cores": the serial
  // baseline sweep would silently run in parallel.
  std::size_t threads = 0;
  try {
    threads = tp::runner::ExperimentRunner::DefaultThreads();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "tp_bench: %s\n", e.what());
    return 2;
  }

  const tp::scenarios::ChannelRegistry& registry = tp::scenarios::ChannelRegistry::Global();
  if (list) {
    std::fputs(tp::scenarios::ListNames(registry).c_str(), stdout);
    return 0;
  }
  if (list_md) {
    std::fputs(tp::scenarios::MarkdownTable(registry).c_str(), stdout);
    return 0;
  }
  if (list_faults) {
    PrintFaultSites();
    return 0;
  }

  if (!inject.empty()) {
    try {
      tp::faults::InstallFaultPlan(tp::faults::ParseFaultSpec(inject));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tp_bench: --inject: %s\n", e.what());
      return 2;
    }
  }

  std::string error;
  std::vector<const tp::scenarios::ChannelSpec*> selected =
      tp::scenarios::SelectSpecs(registry, only, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "tp_bench: %s\n", error.c_str());
    return 2;
  }

  // A recording run checks its label before any channel runs: it needs a
  // non-empty label that the results file, read under its lock with the
  // loader's own reader, does not hold yet.
  if (const std::string json_path = tp::bench::ResultsPath(); !json_path.empty()) {
    const char* env_label = std::getenv("TP_BENCH_LABEL");
    const std::string label = env_label != nullptr ? env_label : "";
    if (label.empty()) {
      std::fprintf(stderr,
                   "tp_bench: recording into %s needs a non-empty label "
                   "(--label or TP_BENCH_LABEL)\n",
                   json_path.c_str());
      return 2;
    }
    std::string label_error;
    const bool fresh = tp::trajectory::EditResultsFile(
        json_path,
        [&](std::string& text, std::string* error) {
          std::optional<tp::trajectory::Trajectory> recorded =
              tp::trajectory::ParseTrajectory(text, error);
          if (recorded && recorded->HasLabel(label)) {
            *error = "label '" + label + "' is already recorded; pick a fresh label";
            return false;
          }
          return recorded.has_value();
        },
        &label_error);
    if (!fresh) {
      std::fprintf(stderr, "tp_bench: %s: %s\n", json_path.c_str(), label_error.c_str());
      return 2;
    }
  }

  // One pool shared across scenarios; each scenario records through its own
  // Recorder, which appends the scenario's records when RunSpec returns.
  tp::runner::ExperimentRunner pool(threads);
  bool failed = false;
  bool cells_failed = false;
  std::vector<ChannelRow> rows;
  for (const tp::scenarios::ChannelSpec* spec : selected) {
    ChannelRow row{.channel = spec->name};
    // The tally is fed when simulated machines are destroyed, which every
    // channel body does before returning — the delta across RunSpec is the
    // channel's simulated work. The Recorder's dropped-record count is read
    // the same way: a rise means the results file refused this channel.
    const tp::hw::SimTally before = tp::hw::SimTallySnapshot();
    const std::size_t dropped_before = tp::bench::Recorder::DroppedRecords();
    const std::uint64_t t0 = tp::bench::Recorder::NowNs();
    bool threw = false;
    try {
      std::vector<tp::runner::SweepCellResult> results =
          tp::scenarios::RunSpec(*spec, pool, !quiet);
      std::size_t bad = 0;
      for (const tp::runner::SweepCellResult& r : results) {
        if (!r.ok()) {
          ++bad;
          std::fprintf(stderr, "tp_bench: channel '%s' cell '%s' %s: %s\n",
                       spec->name.c_str(), r.cell.Name().c_str(), r.status.c_str(),
                       r.error.c_str());
        }
      }
      if (bad > 0) {
        row.status = std::to_string(bad) + " cell(s) failed";
        cells_failed = true;
      } else {
        row.status = "pass";
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tp_bench: channel '%s' failed: %s\n", spec->name.c_str(),
                   e.what());
      threw = true;
    } catch (...) {
      std::fprintf(stderr, "tp_bench: channel '%s' failed: unknown exception\n",
                   spec->name.c_str());
      threw = true;
    }
    const bool unwritten = tp::bench::Recorder::DroppedRecords() != dropped_before;
    if (threw) {
      row.status = "threw";
    } else if (unwritten) {
      row.status = "records not written";
    }
    failed = failed || threw || unwritten;
    const tp::hw::SimTally after = tp::hw::SimTallySnapshot();
    row.wall_ns = tp::bench::Recorder::NowNs() - t0;
    row.sim = {after.accesses - before.accesses, after.branches - before.branches};
    rows.push_back(std::move(row));
  }
  PrintSummary(std::move(rows), pool.threads());
  if (failed) {
    return 1;
  }
  return cells_failed ? 3 : 0;
}
