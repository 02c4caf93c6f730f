// tp_bench_diff — the bench-trajectory regression gate.
//
// Joins two run labels of a BENCH_results.json on (bench, cell) and fails
// (exit 1) on protected-cell leakage or wall-clock regressions; exit 2 for
// unusable input. See src/trajectory/diff.hpp for the gate rules and
// BUILDING.md for the CI wiring.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "trajectory/diff.hpp"
#include "trajectory/trajectory.hpp"

namespace {

constexpr const char* kUsage =
    "usage: tp_bench_diff [options] <baseline-label> <candidate-label>\n"
    "\n"
    "Compares two recorded sweep labels and reports per-cell MI deltas and\n"
    "wall-clock ratios. Exit 0: no regression; 1: regression; 2: bad input.\n"
    "\n"
    "options:\n"
    "  --json PATH      results file to read (default: BENCH_results.json)\n"
    "  --report PATH    also write a machine-readable JSON report\n"
    "  --wall-ratio X   max candidate/baseline wall-clock ratio before a\n"
    "                   cell counts as regressed (default 1.25)\n"
    "  --max-mi-delta X fail ANY joined cell whose |MI delta| exceeds X\n"
    "                   (0 demands bit-identical MI; off by default)\n"
    "  --require-wall   fail any joined cell whose baseline has a wall_ns\n"
    "                   measurement but whose candidate records none\n"
    "  --require-contract\n"
    "                   fail any protected cell whose candidate reports\n"
    "                   contract_clean=false where the baseline was clean or\n"
    "                   absent, or whose candidate dropped the observable\n"
    "  --require-cells  fail any candidate cell recorded with a non-ok\n"
    "                   cell_status (crash-isolated \"failed\"/\"timeout\"\n"
    "                   cells are otherwise reported but not gated)\n"
    "  --list-labels    print the labels present in the file and exit\n"
    "  --quiet          suppress the per-cell table, print the verdict only\n"
    "\n"
    "coverage mode: tp_bench_diff --check-coverage [options] <label>...\n"
    "  Instead of diffing, verify each label covers its sweep: every bench\n"
    "  named in --channels has at least one real cell record (not the\n"
    "  per-process \"total\" row), and every healthy protected cell records\n"
    "  its contract_clean observable. Reports exactly which channel or cell\n"
    "  is missing. Exit 0: covered; 1: coverage hole; 2: bad input.\n"
    "  --channels PATH  expected bench names, one per line (typically the\n"
    "                   output of `tp_bench --list`); omit to check only\n"
    "                   contract coverage\n";

struct Args {
  std::string json_path = "BENCH_results.json";
  std::string report_path;
  std::string baseline;
  std::string candidate;
  tp::trajectory::DiffOptions options;
  bool list_labels = false;
  bool quiet = false;
  bool check_coverage = false;
  std::string channels_path;
  std::vector<std::string> coverage_labels;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tp_bench_diff: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      args->json_path = v;
    } else if (arg == "--report") {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      args->report_path = v;
    } else if (arg == "--wall-ratio") {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      args->options.max_wall_ratio = std::atof(v);
      if (args->options.max_wall_ratio <= 0.0) {
        std::fprintf(stderr, "tp_bench_diff: --wall-ratio must be positive\n");
        return false;
      }
    } else if (arg == "--max-mi-delta") {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      args->options.max_abs_mi_delta = std::atof(v);
    } else if (arg == "--require-wall") {
      args->options.require_cell_wall = true;
    } else if (arg == "--require-contract") {
      args->options.require_contract = true;
    } else if (arg == "--require-cells") {
      args->options.require_cells = true;
    } else if (arg == "--list-labels") {
      args->list_labels = true;
    } else if (arg == "--check-coverage") {
      args->check_coverage = true;
    } else if (arg == "--channels") {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      args->channels_path = v;
    } else if (arg == "--quiet" || arg == "-q") {
      args->quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tp_bench_diff: unknown option %s\n%s", arg.c_str(), kUsage);
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (args->list_labels) {
    return positional.empty();
  }
  if (args->check_coverage) {
    if (positional.empty()) {
      std::fprintf(stderr, "tp_bench_diff: --check-coverage needs at least one label\n%s",
                   kUsage);
      return false;
    }
    args->coverage_labels = std::move(positional);
    return true;
  }
  if (positional.size() != 2) {
    std::fputs(kUsage, stderr);
    return false;
  }
  args->baseline = positional[0];
  args->candidate = positional[1];
  return true;
}

// Expected bench names, one per line; blank lines ignored.
bool LoadChannels(const std::string& path, std::vector<std::string>* channels) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tp_bench_diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!line.empty()) {
      channels->push_back(line);
    }
  }
  return true;
}

// Coverage mode: checks each label in turn and prints per-label verdicts.
int RunCoverage(const Args& args, const tp::trajectory::Trajectory& trajectory) {
  tp::trajectory::CoverageOptions options;
  if (!args.channels_path.empty() &&
      !LoadChannels(args.channels_path, &options.expected_benches)) {
    return 2;
  }
  bool covered = true;
  bool bad_input = false;
  for (const std::string& label : args.coverage_labels) {
    tp::trajectory::CoverageResult r =
        tp::trajectory::CheckCoverage(trajectory, label, options);
    if (!r.error.empty()) {
      std::fprintf(stderr, "tp_bench_diff: %s\n", r.error.c_str());
      bad_input = true;
      continue;
    }
    for (const std::string& bench : r.missing_benches) {
      std::printf("coverage: channel '%s' recorded no cells under label '%s'\n",
                  bench.c_str(), label.c_str());
    }
    for (const std::string& cell : r.missing_contract) {
      std::printf("coverage: protected cell '%s' lacks contract_clean under label '%s'\n",
                  cell.c_str(), label.c_str());
    }
    if (!args.quiet) {
      for (const std::string& note : r.notes) {
        std::printf("note: %s\n", note.c_str());
      }
    }
    std::printf(
        "tp_bench_diff: coverage of '%s' — %zu cell record(s), %zu/%zu expected "
        "channel(s) present, %zu protected cell(s) without contract_clean -> %s\n",
        label.c_str(), r.records,
        options.expected_benches.size() - r.missing_benches.size(),
        options.expected_benches.size(), r.missing_contract.size(),
        r.ok() ? "PASS" : "FAIL");
    covered = covered && r.ok();
  }
  if (bad_input) {
    return 2;
  }
  return covered ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }

  std::string error;
  std::optional<tp::trajectory::Trajectory> trajectory =
      tp::trajectory::LoadTrajectory(args.json_path, &error);
  if (!trajectory) {
    std::fprintf(stderr, "tp_bench_diff: %s\n", error.c_str());
    return 2;
  }
  for (const std::string& w : trajectory->warnings) {
    std::fprintf(stderr, "tp_bench_diff: warning: %s\n", w.c_str());
  }

  if (args.list_labels) {
    for (const std::string& label : trajectory->Labels()) {
      std::printf("%s\n", label.c_str());
    }
    return 0;
  }

  if (args.check_coverage) {
    return RunCoverage(args, *trajectory);
  }

  tp::trajectory::DiffOutcome outcome = tp::trajectory::DiffTrajectories(
      *trajectory, args.baseline, args.candidate, args.options);

  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    out << tp::trajectory::ReportJson(outcome);
    if (!out) {
      std::fprintf(stderr, "tp_bench_diff: cannot write %s\n", args.report_path.c_str());
      return 2;
    }
  }

  if (!outcome.error.empty()) {
    std::fprintf(stderr, "tp_bench_diff: %s\n", outcome.error.c_str());
    return 2;
  }

  const tp::trajectory::DiffResult& r = outcome.result;
  if (!args.quiet) {
    std::printf("%-58s  %10s  %10s  %6s  %s\n", "bench/cell", "mi_delta_b", "wall_ratio",
                "prot", "verdict");
    for (const tp::trajectory::CellDiff& d : r.cells) {
      std::string key = d.bench + "/" + d.cell;
      const char* verdict = d.cell_failure             ? "FAILED"
                            : d.cand_status != "ok"    ? "failed (not gated)"
                            : d.leak_regression        ? "LEAK"
                            : d.wall_regression        ? "SLOW"
                            : d.mi_delta_regression    ? "MI-DRIFT"
                            : d.missing_wall           ? "NO-WALL"
                            : d.contract_regression    ? "DIRTY"
                                                       : "ok";
      std::printf("%-58s  %+10.4g  %10.3f  %6s  %s\n", key.c_str(), d.mi_delta, d.wall_ratio,
                  d.protected_mode ? "yes" : "-", verdict);
    }
    for (const std::string& key : r.missing_in_candidate) {
      std::printf("%-58s  %10s  %10s  %6s  missing in %s\n", key.c_str(), "-", "-", "-",
                  r.candidate_label.c_str());
    }
    for (const std::string& key : r.missing_in_baseline) {
      std::printf("%-58s  %10s  %10s  %6s  new (not in %s)\n", key.c_str(), "-", "-", "-",
                  r.baseline_label.c_str());
    }
    for (const std::string& note : r.notes) {
      std::printf("note: %s\n", note.c_str());
    }
  }
  std::printf(
      "tp_bench_diff: %s vs %s — %zu cells compared, %zu leak regression(s), "
      "%zu wall regression(s), %zu MI drift(s), %zu missing protected cell(s), "
      "%zu missing wall record(s), %zu contract regression(s), "
      "%zu failed cell(s) -> %s\n",
      r.baseline_label.c_str(), r.candidate_label.c_str(), r.cells.size(),
      r.leak_regressions, r.wall_regressions, r.mi_delta_regressions, r.missing_protected,
      r.missing_wall, r.contract_regressions, r.failed_cells, outcome.ok() ? "PASS" : "FAIL");
  return outcome.ok() ? 0 : 1;
}
