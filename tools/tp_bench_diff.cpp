// tp_bench_diff — the bench-trajectory regression gate.
//
// Joins two run labels of a BENCH_results.json on (bench, cell) and fails
// (exit 1) when the candidate regressed under any gate rule, every one of
// them always on; exit 2 for unusable input. See src/trajectory/diff.hpp
// for the gate rules and BUILDING.md for the CI wiring.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "trajectory/diff.hpp"
#include "trajectory/trajectory.hpp"

namespace {

constexpr const char* kUsage =
    "usage: tp_bench_diff [options] <baseline-label> <candidate-label>\n"
    "\n"
    "Compares two recorded sweep labels and reports per-cell MI deltas and\n"
    "wall-clock ratios. Every gate rule is always on: protected-cell leakage,\n"
    "baseline cells missing from the candidate, crash-isolated candidate\n"
    "cells, wall-clock blow-ups and vanished wall_ns, and protected cells that\n"
    "turn contract-dirty or, against a taint-on baseline, lack contract_clean.\n"
    "A baseline holding a crash-isolated cell is bad input.\n"
    "Exit 0: no regression; 1: regression; 2: bad input.\n"
    "\n"
    "options:\n"
    "  --json PATH      results file to read (default: BENCH_results.json)\n"
    "  --report PATH    also write a machine-readable JSON report\n"
    "  --wall-ratio X   max candidate/baseline wall-clock ratio before a\n"
    "                   cell counts as regressed (a finite number above 0;\n"
    "                   default 1.25)\n"
    "  --max-mi-delta X fail ANY joined cell whose |MI delta| exceeds X (a\n"
    "                   finite number >= 0; 0 demands bit-identical MI; off\n"
    "                   by default)\n"
    "  --list-labels    print the labels present in the file and exit\n"
    "  --quiet          suppress the per-cell table, print the verdict only\n";

struct Args {
  std::string json_path = "BENCH_results.json";
  std::string report_path;
  std::string baseline;
  std::string candidate;
  tp::trajectory::DiffOptions options;
  bool list_labels = false;
  bool quiet = false;
};

// A gate threshold: a complete, finite number. Anything else ("abc",
// "1.5x", "nan", "inf") is nullopt, so a typo cannot change the gate.
std::optional<double> ParseThreshold(const char* text) {
  double x = 0.0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, x);
  if (ptr == text || ec != std::errc{} || ptr != end || !std::isfinite(x)) {
    return std::nullopt;
  }
  return x;
}

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
      const std::optional<double> ratio = ParseThreshold(v);
      if (!ratio || *ratio <= 0.0) {
        std::fprintf(stderr, "tp_bench_diff: --wall-ratio '%s' must be a finite number above 0\n",
                     v);
        return false;
      }
      args->options.max_wall_ratio = *ratio;
    } else if (arg == "--max-mi-delta") {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      const std::optional<double> delta = ParseThreshold(v);
      if (!delta || *delta < 0.0) {
        std::fprintf(stderr,
                     "tp_bench_diff: --max-mi-delta '%s' must be a finite number of at least 0\n",
                     v);
        return false;
      }
      args->options.max_abs_mi_delta = *delta;
    } else if (arg == "--list-labels") {
      args->list_labels = true;
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
  if (positional.size() != 2) {
    std::fputs(kUsage, stderr);
    return false;
  }
  args->baseline = positional[0];
  args->candidate = positional[1];
  return true;
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
      const char* verdict = d.cell_failure()           ? "FAILED"
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
      "%zu wall regression(s), %zu MI drift(s), %zu missing cell(s), "
      "%zu missing wall record(s), %zu contract regression(s), "
      "%zu failed cell(s) -> %s\n",
      r.baseline_label.c_str(), r.candidate_label.c_str(), r.cells.size(),
      r.leak_regressions, r.wall_regressions, r.mi_delta_regressions,
      r.missing_in_candidate.size(), r.missing_wall, r.contract_regressions, r.failed_cells,
      outcome.ok() ? "PASS" : "FAIL");
  return outcome.ok() ? 0 : 1;
}
