// Trajectory diff: joins two labels of a recorded bench trajectory on
// (bench, cell) and decides whether the candidate regressed. Every rule is
// always on; the two thresholds are the only knobs.
//
//  * leakage — a protected-mode cell (a "/"-separated cell-name segment
//    equal to "protected") whose candidate MI exceeds its baseline MI.
//    Cells the baseline already shows as leaky (the paper's residual x86 L2
//    channel, deliberately crippled ablation cells) pass as long as they do
//    not get worse; a protected cell absent from the baseline is held to
//    MI = 0.
//  * coverage — a baseline cell absent from the candidate (dropping or
//    renaming a cell, or a channel that stopped recording, must refresh the
//    baseline in the same change, or gating would erode silently).
//  * crash isolation — a candidate cell recorded with a non-ok cell_status.
//  * wall-clock — candidate/baseline wall_ns beyond `max_wall_ratio` on
//    cells expensive enough to time meaningfully (>= kMinGatedWallNs),
//    compared per round when the two sides ran different round counts; and
//    a cell whose baseline records wall_ns but whose candidate records none.
//  * contract — a protected cell whose candidate reports
//    contract_clean=false where the baseline was clean (or absent), and,
//    when the baseline label records contract observables (a taint-on
//    run), a healthy protected candidate cell without contract_clean.
//    Catches residual state that is MI-quiet on the sampled inputs but
//    structurally present.
//  * MI drift — any joined cell whose |MI delta| exceeds
//    `max_abs_mi_delta` (off unless set).
//
// A baseline label that holds a crash-isolated cell carries no floors for
// it and is refused. Cells new to the baseline and quick/full-mode
// mismatches are surfaced as notes. A duplicate (bench, cell) within one
// label is a hard error: "latest wins" silently masked double-appended
// runs.
#ifndef TP_TRAJECTORY_DIFF_HPP_
#define TP_TRAJECTORY_DIFF_HPP_

#include <string>
#include <string_view>
#include <vector>

#include "trajectory/trajectory.hpp"

namespace tp::trajectory {

// Cells whose baseline and candidate wall_ns both fall below this are
// never wall-gated (sub-50ms timings are host noise).
inline constexpr std::uint64_t kMinGatedWallNs = 50'000'000;
// Slack when comparing MI estimates (bit-identical reruns give exactly
// equal values; the eps only guards float formatting).
inline constexpr double kMiEpsBits = 1e-9;
// Metric keys that gate protected cells like MI does: a candidate value
// above the baseline's (or above 0 when the baseline lacks the key) is a
// leak regression, and a key the baseline records but the candidate
// dropped fails too (removing the observable would disarm the gate).
// Covers channels whose observable is not an MI estimate — e.g. the fig4
// LLC spy's activity_fraction.
inline constexpr const char* kLeakMetricKeys[] = {"activity_fraction"};
// Slack for leak-metric comparisons (fractions/counts, not bits — kept
// separate from kMiEpsBits so the two gates tune independently).
inline constexpr double kLeakMetricEps = 1e-9;

struct DiffOptions {
  // Fail when candidate wall_ns / baseline wall_ns exceeds this (1.25 =
  // 25% slower, the quick-mode default; raise when baseline and candidate
  // ran on different hardware).
  double max_wall_ratio = 1.25;
  // When finite, ANY joined cell (protected or not) whose |MI delta|
  // exceeds this fails — 0 demands bit-identical MI, the CI
  // serial-vs-parallel sharding check. Disabled by default.
  double max_abs_mi_delta = std::numeric_limits<double>::infinity();
};

// True when one of the cell name's "/" segments is exactly "protected"
// (e.g. "Haswell (x86)/ts=0.25ms/protected", "…/L2/protected"; not the
// deliberately crippled "protected-nopad" ablation cells).
bool IsProtectedCell(std::string_view cell);

struct CellDiff {
  std::string bench;
  std::string cell;
  bool protected_mode = false;
  double base_mi = std::numeric_limits<double>::quiet_NaN();
  double cand_mi = std::numeric_limits<double>::quiet_NaN();
  double mi_delta = 0.0;  // cand - base, 0 when either side lacks MI
  std::uint64_t base_wall_ns = 0;
  std::uint64_t cand_wall_ns = 0;
  // cand / base; infinity when only the candidate burned wall time.
  double wall_ratio = 1.0;
  bool leak_regression = false;
  bool wall_regression = false;
  bool mi_delta_regression = false;
  bool missing_wall = false;  // baseline timed this cell, candidate did not
  // Recorded rounds on each side.
  std::uint64_t base_rounds = 0;
  std::uint64_t cand_rounds = 0;
  // The wall gate compared per-round cost because the two sides ran
  // different round counts.
  bool wall_normalized = false;
  // Contract observable on each side (-1 = not recorded, 0 = dirty,
  // 1 = clean) and the contract verdict.
  int base_contract = -1;
  int cand_contract = -1;
  bool contract_regression = false;
  // Candidate crash-isolation status ("ok", "failed", "timeout"); any other
  // than "ok" fails the cell.
  std::string cand_status = "ok";

  bool cell_failure() const { return cand_status != "ok"; }
};

// Whole-diff totals over the compared cells — the report's top-level
// summary block.
struct DiffSummary {
  std::uint64_t base_wall_ns = 0;
  std::uint64_t cand_wall_ns = 0;
  std::uint64_t base_rounds = 0;
  std::uint64_t cand_rounds = 0;
  std::size_t cells_gated = 0;  // cells with any regression flag
};

struct DiffResult {
  std::string baseline_label;
  std::string candidate_label;
  DiffOptions options;
  std::vector<CellDiff> cells;  // joined (bench, cell) pairs, input order
  std::vector<std::string> missing_in_candidate;  // "bench/cell" keys
  std::vector<std::string> missing_in_baseline;
  std::vector<std::string> notes;  // duplicates, quick mismatches, ...
  DiffSummary summary;

  std::size_t leak_regressions = 0;
  std::size_t wall_regressions = 0;
  std::size_t mi_delta_regressions = 0;
  std::size_t missing_wall = 0;          // cells whose candidate lost per-cell timing
  std::size_t contract_regressions = 0;  // protected cells dirty or without contract_clean
  std::size_t failed_cells = 0;          // crash-isolated candidate cells
  bool ok() const {
    return leak_regressions == 0 && wall_regressions == 0 && mi_delta_regressions == 0 &&
           missing_in_candidate.empty() && missing_wall == 0 && contract_regressions == 0 &&
           failed_cells == 0;
  }
};

// Joins `baseline` and `candidate` labels over the trajectory. Both labels
// must exist, the baseline must hold no crash-isolated cell and at least one
// cell must be comparable; otherwise the outcome carries an `error` and
// nothing was gated.
struct DiffOutcome {
  DiffResult result;
  std::string error;  // non-empty: unusable labels, nothing compared
  bool ok() const { return error.empty() && result.ok(); }
};

DiffOutcome DiffTrajectories(const Trajectory& trajectory, std::string_view baseline,
                             std::string_view candidate, const DiffOptions& options = {});

// Machine-readable report of the diff (one self-contained JSON object).
std::string ReportJson(const DiffOutcome& outcome);

}  // namespace tp::trajectory

#endif  // TP_TRAJECTORY_DIFF_HPP_
