// Trajectory diff: joins two labels of a recorded bench trajectory on
// (bench, cell) and decides whether the candidate regressed.
//
// Two rules gate (everything else is reported, not gated):
//
//  * leakage — a protected-mode cell (a "/"-separated cell-name segment
//    equal to "protected") whose candidate MI exceeds its baseline MI.
//    Cells the baseline already shows as leaky (the paper's residual x86 L2
//    channel, deliberately crippled ablation cells) pass as long as they do
//    not get worse; a protected cell absent from the baseline is held to
//    MI = 0, and a protected baseline cell absent from the candidate fails
//    (dropping or renaming one must refresh the baseline in the same
//    change, or leakage coverage would erode silently).
//  * wall-clock — candidate/baseline wall_ns beyond `max_wall_ratio` on
//    cells expensive enough to time meaningfully (>= kMinGatedWallNs),
//    compared per round when the two sides ran different round counts.
//
//  * contract (opt-in, `require_contract`) — a protected cell whose
//    candidate reports contract_clean=false where the baseline was clean
//    (or absent), or whose candidate dropped the observable the baseline
//    carried. Catches residual state that is MI-quiet on the sampled
//    inputs but structurally present.
//
// Cells present on only one side and quick/full-mode mismatches are
// surfaced as notes. A duplicate (bench, cell) within one label is a hard
// error: "latest wins" silently masked double-appended runs.
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
  // Fail any joined cell whose baseline carries a wall_ns measurement but
  // whose candidate records none (wall_ns == 0): per-cell timing that
  // silently vanishes would exempt the cell from every future wall gate.
  bool require_cell_wall = false;
  // Gate protected cells on the v3 contract_clean observable: a candidate
  // reported dirty where the baseline was clean or absent fails, as does a
  // candidate that lost the observable the baseline carried (same
  // disarm-the-gate rule as require_cell_wall). Cells the baseline already
  // shows dirty (the paper's residual x86 private-L2 state) pass as long as
  // they stay no worse.
  bool require_contract = false;
  // Gate on crash-isolated cells: any candidate record whose cell_status is
  // not "ok" fails. Off by default so a diff against a partially-failed run
  // still reports the healthy cells; failed cells are always surfaced as
  // notes either way (and exempted from the leak/wall/contract gates — a
  // crashed cell has no observables to compare).
  bool require_cells = false;
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
  // 1 = clean) and the require_contract verdict.
  int base_contract = -1;
  int cand_contract = -1;
  bool contract_regression = false;
  // Candidate crash-isolation status ("ok", "failed", "timeout") and the
  // require_cells verdict.
  std::string cand_status = "ok";
  bool cell_failure = false;
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
  std::size_t missing_protected = 0;  // protected baseline cells gone from candidate
  std::size_t missing_wall = 0;       // cells whose candidate lost per-cell timing
  std::size_t contract_regressions = 0;  // protected cells newly contract-dirty
  std::size_t failed_cells = 0;       // candidate cells gated by require_cells
  bool ok() const {
    return leak_regressions == 0 && wall_regressions == 0 && mi_delta_regressions == 0 &&
           missing_protected == 0 && missing_wall == 0 && contract_regressions == 0 &&
           failed_cells == 0;
  }
};

// Joins `baseline` and `candidate` labels over the trajectory. Both labels
// must exist and at least one cell must be comparable; otherwise the
// outcome carries an `error` and nothing was gated.
struct DiffOutcome {
  DiffResult result;
  std::string error;  // non-empty: a label was absent, nothing compared
  bool ok() const { return error.empty() && result.ok(); }
};

DiffOutcome DiffTrajectories(const Trajectory& trajectory, std::string_view baseline,
                             std::string_view candidate, const DiffOptions& options = {});

// Machine-readable report of the diff (one self-contained JSON object).
std::string ReportJson(const DiffOutcome& outcome);

// --- coverage check ---------------------------------------------------------
//
// Verifies one recorded label actually covers the sweep it claims to: every
// expected bench produced at least one real cell record (not the Recorder's
// per-process "total" row), and — when `require_contract` — every healthy
// protected-mode cell carries the contract_clean observable. A channel that
// exists but records nothing, or a protected cell that silently stops
// reporting its contract verdict, would otherwise dodge every diff gate.

struct CoverageOptions {
  // Bench names that must each have at least one non-"total" cell record
  // under the label (typically the `tp_bench --list` registry). Empty list:
  // the bench-coverage check is skipped.
  std::vector<std::string> expected_benches;
  // Require contract_clean on every protected ok-cell (taint-on sweeps).
  bool require_contract = true;
};

struct CoverageResult {
  std::string label;
  std::string error;  // label absent from the trajectory; nothing checked
  std::vector<std::string> missing_benches;   // expected bench, no cell record
  std::vector<std::string> missing_contract;  // "bench/cell" lacking contract_clean
  std::vector<std::string> notes;  // crash-isolated cells exempted, ...
  std::size_t records = 0;         // cell records seen under the label
  bool ok() const {
    return error.empty() && missing_benches.empty() && missing_contract.empty();
  }
};

CoverageResult CheckCoverage(const Trajectory& trajectory, std::string_view label,
                             const CoverageOptions& options = {});

}  // namespace tp::trajectory

#endif  // TP_TRAJECTORY_DIFF_HPP_
