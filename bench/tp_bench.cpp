// tp_bench — the unified paper-reproduction bench driver.
//
// Every experiment is a registered scenario (src/scenarios/); this CLI
// enumerates, filters and runs them through the shared parallel runner and
// recorder. One process runs, times and records a whole sweep: every cell
// is crash-isolated, a channel body that throws fails only that channel,
// and each channel's records reach the results file as soon as it
// finishes. CI's coverage check reads `tp_bench --list`, so a registered
// channel can never be silently skipped by the leakage gate.
//
//   tp_bench --list                 # registered channel names, one per line
//   tp_bench --list-md              # README markdown channel table
//   tp_bench --list-faults          # registered fault-injection sites
//   tp_bench                        # run every channel
//   tp_bench --only fig5_flush_channel [--only ...]   # subset
//   tp_bench --grid quick|full      # force TP_QUICK on/off for this run
//   tp_bench --label L              # TP_BENCH_LABEL for recorded results
//   tp_bench --json PATH            # TP_BENCH_JSON results file
//   tp_bench --inject SITE[:PARAM]  # break one defense (mutation testing)
//   tp_bench --cell-budget-ms N     # per-cell watchdog (cell_status=timeout;
//                                   # TP_CELL_BUDGET_MS, same format)
//   tp_bench --resume               # complete only the cells missing from
//                                   # the results file under this label
//                                   # (an incomplete cost spec reruns whole)
//   tp_bench --quiet                # suppress the scenario tables
//
// A recording run needs a non-empty label that the results file does not
// hold yet; --resume instead completes that label in place. Both are
// checked before any channel runs. Every run ends with the channel
// summary: per channel its status, wall seconds, simulated accesses and
// branches and accesses/second, slowest first, then a TOTAL row.
//
// Exit codes: 0 all selected channels passed; 1 a channel body threw; 2 bad
// usage / unknown channel name / malformed TP_CELL_BUDGET_MS or TP_THREADS
// / missing or already recorded label / unreadable results file; 3 every
// channel ran but some cell was crash-isolated (cell_status != ok in the
// recorded results).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <set>
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
    "                [--inject SITE[:PARAM]] [--cell-budget-ms N] [--resume]\n"
    "                [--quiet]\n";

// One channel's line of the summary.
struct ChannelRow {
  std::string channel;
  std::string status;  // "pass", "already recorded", "threw" or "N cell(s) failed"
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
  std::printf("%-28s %-18s %9s %16s %14s %12s\n", "channel", "status", "wall s",
              "sim accesses", "sim branches", "accesses/s");
  ChannelRow total{.channel = "TOTAL"};
  auto print = [](const ChannelRow& row) {
    const double secs = static_cast<double>(row.wall_ns) / 1e9;
    const double rate = secs > 0.0 ? static_cast<double>(row.sim.accesses) / secs : 0.0;
    std::printf("%-28s %-18s %9.3f %16llu %14llu %12.3g\n", row.channel.c_str(),
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

// What a prior run recorded for one bench under the resume label.
struct BenchHistory {
  std::set<std::string> ok_cells;
  bool has_total = false;
  std::size_t non_ok = 0;
};

// Resume bookkeeping: whether the file holds the label at all, which specs
// are complete, which cells to skip, and the record texts the rewritten
// results file keeps.
struct ResumePlan {
  bool label_recorded = false;
  std::set<std::string> complete;
  std::map<std::string, std::set<std::string>> skip;
  std::vector<std::string> kept;
  bool rewrite = false;
};

// Scans the results file's text for the label and decides, per selected
// spec, whether it is already fully recorded (skip), partially recorded or
// absent. A partially recorded channel spec keeps its ok cells and reruns
// only the rest; a partially recorded cost spec is stripped and rerun
// whole, since its cross-cell ratios need their baseline cells in the same
// run. A file that does not hold the label plans a plain run that keeps
// every record. Returns nullopt with `error` on unusable input.
std::optional<ResumePlan> PlanResume(
    const std::string& text, const std::string& label,
    const std::vector<const tp::scenarios::ChannelSpec*>& selected, std::string* error) {
  // An absent or blank file holds no records, as the Recorder reads it.
  std::optional<std::vector<std::string>> raw =
      text.find_first_not_of(" \t\r\n") == std::string::npos
          ? std::vector<std::string>{}
          : tp::trajectory::SplitRecordTexts(text, error);
  if (!raw) {
    return std::nullopt;
  }

  std::map<std::string, const tp::scenarios::ChannelSpec*> selected_specs;
  for (const tp::scenarios::ChannelSpec* spec : selected) {
    selected_specs[spec->name] = spec;
  }

  // First pass: type each raw record (individually, so a record this build
  // does not understand is kept verbatim instead of dropped).
  std::vector<std::optional<tp::trajectory::TrajectoryRecord>> typed(raw->size());
  std::map<std::string, BenchHistory> history;
  ResumePlan plan;
  for (std::size_t i = 0; i < raw->size(); ++i) {
    std::optional<tp::trajectory::Trajectory> one =
        tp::trajectory::ParseTrajectory("[" + (*raw)[i] + "]");
    if (!one || one->records.size() != 1) {
      continue;
    }
    typed[i] = std::move(one->records[0]);
    const tp::trajectory::TrajectoryRecord& r = *typed[i];
    plan.label_recorded = plan.label_recorded || r.label == label;
    if (r.label != label || selected_specs.find(r.bench) == selected_specs.end()) {
      continue;
    }
    BenchHistory& h = history[r.bench];
    if (r.cell == "total") {
      h.has_total = true;
    } else if (r.cell_ok()) {
      h.ok_cells.insert(r.cell);
    } else {
      ++h.non_ok;
    }
  }

  for (const auto& [bench, h] : history) {
    if (h.has_total && h.non_ok == 0 && !h.ok_cells.empty()) {
      plan.complete.insert(bench);
    } else if (!h.ok_cells.empty() && selected_specs.at(bench)->is_channel()) {
      plan.skip[bench] = h.ok_cells;
    }
  }

  // Second pass: of the specs about to be rerun, keep only the records of
  // the cells the rerun skips; every other record of theirs (stale total,
  // non-ok cells, a cost spec's cells) is re-recorded.
  for (std::size_t i = 0; i < raw->size(); ++i) {
    bool keep = true;
    if (typed[i] && typed[i]->label == label &&
        selected_specs.find(typed[i]->bench) != selected_specs.end() &&
        plan.complete.find(typed[i]->bench) == plan.complete.end()) {
      auto skip = plan.skip.find(typed[i]->bench);
      keep = skip != plan.skip.end() && typed[i]->cell_ok() &&
             skip->second.count(typed[i]->cell) > 0;
    }
    if (keep) {
      plan.kept.push_back((*raw)[i]);
    } else {
      plan.rewrite = true;
    }
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool list_md = false;
  bool list_faults = false;
  bool quiet = false;
  bool resume = false;
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
    } else if (arg == "--resume") {
      resume = true;
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
  // non-empty label the results file does not hold yet, unless --resume
  // completes that label in place. The check, resume's plan and its strip
  // of stale records are one locked read-edit-replace, so a concurrent
  // writer's records are neither lost nor planned around.
  ResumePlan resume_plan;
  const std::string json_path = tp::bench::ResultsPath();
  if (json_path.empty()) {
    if (resume) {
      std::fprintf(stderr, "tp_bench: --resume needs a results file (--json or TP_BENCH_JSON)\n");
      return 2;
    }
  } else {
    const char* env_label = std::getenv("TP_BENCH_LABEL");
    const std::string label = env_label != nullptr ? env_label : "";
    if (label.empty()) {
      std::fprintf(stderr,
                   "tp_bench: recording into %s needs a non-empty label "
                   "(--label or TP_BENCH_LABEL)\n",
                   json_path.c_str());
      return 2;
    }
    std::string plan_error;
    const bool planned = tp::trajectory::EditResultsFile(
        json_path,
        [&](std::string& text, std::string* error) {
          std::optional<ResumePlan> plan = PlanResume(text, label, selected, error);
          if (!plan) {
            return false;
          }
          if (plan->label_recorded && !resume) {
            *error = "label '" + label +
                     "' is already recorded; pick a fresh label, or pass --resume to "
                     "complete it";
            return false;
          }
          resume_plan = std::move(*plan);
          if (resume_plan.rewrite) {
            text = tp::trajectory::JoinRecordTexts(resume_plan.kept);
          }
          return true;
        },
        &plan_error);
    if (!planned) {
      std::fprintf(stderr, "tp_bench: %s: %s\n", json_path.c_str(), plan_error.c_str());
      return 2;
    }
  }

  // One pool shared across scenarios; each scenario records through its own
  // Recorder, which appends the scenario's records when RunSpec returns, so
  // a crash keeps every finished channel for --resume.
  tp::runner::ExperimentRunner pool(threads);
  bool threw = false;
  bool cells_failed = false;
  std::vector<ChannelRow> rows;
  for (const tp::scenarios::ChannelSpec* spec : selected) {
    ChannelRow row{.channel = spec->name};
    if (resume_plan.complete.find(spec->name) != resume_plan.complete.end()) {
      row.status = "already recorded";
      rows.push_back(std::move(row));
      continue;
    }
    tp::scenarios::RunSpecOptions options;
    options.verbose = !quiet;
    if (auto it = resume_plan.skip.find(spec->name); it != resume_plan.skip.end()) {
      options.sweep.skip_cells = &it->second;
    }
    // The tally is fed when simulated machines are destroyed, which every
    // channel body does before returning — the delta across RunSpec is the
    // channel's simulated work.
    const tp::hw::SimTally before = tp::hw::SimTallySnapshot();
    const std::uint64_t t0 = tp::bench::Recorder::NowNs();
    try {
      std::vector<tp::runner::SweepCellResult> results =
          tp::scenarios::RunSpec(*spec, pool, options);
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
      row.status = "threw";
      threw = true;
    } catch (...) {
      std::fprintf(stderr, "tp_bench: channel '%s' failed: unknown exception\n",
                   spec->name.c_str());
      row.status = "threw";
      threw = true;
    }
    const tp::hw::SimTally after = tp::hw::SimTallySnapshot();
    row.wall_ns = tp::bench::Recorder::NowNs() - t0;
    row.sim = {after.accesses - before.accesses, after.branches - before.branches};
    rows.push_back(std::move(row));
  }
  PrintSummary(std::move(rows), pool.threads());
  if (threw) {
    return 1;
  }
  return cells_failed ? 3 : 0;
}
