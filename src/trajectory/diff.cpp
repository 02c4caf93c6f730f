#include "trajectory/diff.hpp"

#include <algorithm>
#include <map>

#include "trajectory/json.hpp"

namespace tp::trajectory {

namespace {

std::string Key(const TrajectoryRecord& r) { return r.bench + "/" + r.cell; }

// One record per (bench, cell) for one label. A duplicate is a hard error:
// "latest wins" used to paper over a label appended twice (e.g. a rerun
// into a committed baseline file), and whichever run happened to come last
// silently became the gated truth.
std::map<std::string, const TrajectoryRecord*> IndexLabel(const Trajectory& t,
                                                          std::string_view label,
                                                          std::string* error) {
  std::map<std::string, const TrajectoryRecord*> index;
  for (const TrajectoryRecord& r : t.records) {
    if (r.label != label) {
      continue;
    }
    std::string key = Key(r);
    if (auto it = index.find(key); it != index.end()) {
      *error = "duplicate record for '" + key + "' in label '" + std::string(label) +
               "'; one record per (bench, cell) per label — rerun under a fresh label";
      return index;
    }
    index[key] = &r;
  }
  return index;
}

void AppendStringArray(std::string& out, const char* name,
                       const std::vector<std::string>& items) {
  out += "  \"";
  out += name;
  out += "\": [";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + JsonQuote(items[i]);
  }
  out += items.empty() ? "]" : "\n  ]";
}

}  // namespace

bool IsProtectedCell(std::string_view cell) {
  while (!cell.empty()) {
    std::size_t slash = cell.find('/');
    std::string_view segment = cell.substr(0, slash);
    if (segment == "protected") {
      return true;
    }
    if (slash == std::string_view::npos) {
      break;
    }
    cell.remove_prefix(slash + 1);
  }
  return false;
}

DiffOutcome DiffTrajectories(const Trajectory& trajectory, std::string_view baseline,
                             std::string_view candidate, const DiffOptions& options) {
  DiffOutcome outcome;
  DiffResult& result = outcome.result;
  result.baseline_label = baseline;
  result.candidate_label = candidate;
  result.options = options;

  if (!trajectory.HasLabel(baseline)) {
    outcome.error = "label '" + std::string(baseline) + "' not found in trajectory";
    return outcome;
  }
  if (!trajectory.HasLabel(candidate)) {
    outcome.error = "label '" + std::string(candidate) + "' not found in trajectory";
    return outcome;
  }

  auto base = IndexLabel(trajectory, baseline, &outcome.error);
  if (!outcome.error.empty()) {
    return outcome;
  }
  auto cand = IndexLabel(trajectory, candidate, &outcome.error);
  if (!outcome.error.empty()) {
    return outcome;
  }

  // A crash-isolated baseline cell carries no floors: gating against it
  // would wave the candidate through, so the baseline must be re-recorded.
  bool base_has_contract = false;
  for (const auto& [key, b] : base) {
    if (!b->cell_ok()) {
      outcome.error = "baseline label '" + std::string(baseline) +
                      "' holds crash-isolated cell '" + key + "' (" + b->cell_status +
                      "); re-record the baseline under a fresh label";
      return outcome;
    }
    base_has_contract = base_has_contract || b->has_contract();
  }

  for (const auto& [key, b] : base) {
    // A cell that vanished takes its gating with it — dropping or renaming
    // one, or a channel that stopped recording, must refresh the baseline.
    if (cand.find(key) == cand.end()) {
      result.missing_in_candidate.push_back(key);
    }
  }
  for (const auto& [key, c] : cand) {
    const TrajectoryRecord* b = nullptr;
    if (auto it = base.find(key); it != base.end()) {
      b = it->second;
    } else {
      result.missing_in_baseline.push_back(key);
      // A cell new to the trajectory is still gated when it crashed or is
      // protected: it must enter with zero MI (or zero on every leak-metric
      // key) and a clean contract, or the gate never sees it regress.
      if (c->cell_ok() && !IsProtectedCell(c->cell)) {
        continue;
      }
    }

    CellDiff d;
    d.bench = c->bench;
    d.cell = c->cell;
    d.protected_mode = IsProtectedCell(c->cell);
    d.cand_mi = c->mi_bits;
    d.cand_wall_ns = c->wall_ns;
    d.cand_rounds = c->rounds;
    d.base_contract = b != nullptr ? b->contract_clean : -1;
    if (!c->cell_ok()) {
      // A crash-isolated candidate cell fails, and has no observables for
      // the leak/wall/contract gates to misread.
      d.cand_status = c->cell_status;
      std::string note = "candidate cell '" + key + "' " + c->cell_status;
      if (!c->cell_error.empty()) {
        note += ": " + c->cell_error;
      }
      result.notes.push_back(std::move(note));
      ++result.failed_cells;
      result.cells.push_back(std::move(d));
      continue;
    }
    double base_mi_floor = 0.0;
    if (b != nullptr) {
      if (b->quick != c->quick) {
        result.notes.push_back("quick/full mismatch for '" + key + "', cell not compared");
        continue;
      }
      d.base_mi = b->mi_bits;
      d.base_wall_ns = b->wall_ns;
      d.base_rounds = b->rounds;
      if (b->has_mi()) {
        base_mi_floor = b->mi_bits;
      }
      if (b->has_mi() && c->has_mi()) {
        d.mi_delta = c->mi_bits - b->mi_bits;
        d.mi_delta_regression = std::abs(d.mi_delta) > options.max_abs_mi_delta;
      } else if (b->has_mi() != c->has_mi()) {
        // MI appearing or disappearing is as much a divergence as a delta.
        d.mi_delta_regression = std::isfinite(options.max_abs_mi_delta);
      }
      if (d.base_wall_ns > 0) {
        d.wall_ratio =
            static_cast<double>(d.cand_wall_ns) / static_cast<double>(d.base_wall_ns);
      } else if (d.cand_wall_ns > 0) {
        d.wall_ratio = std::numeric_limits<double>::infinity();
      }
      bool wall_gated = std::max(d.base_wall_ns, d.cand_wall_ns) >= kMinGatedWallNs;
      // When the two sides ran different round counts the raw ratio mostly
      // measures the round difference; gate on per-round cost instead, so
      // a smaller run neither hides a slowdown nor fails for sampling less.
      double gate_ratio = d.wall_ratio;
      if (d.base_rounds > 0 && d.cand_rounds > 0 && d.base_rounds != d.cand_rounds &&
          d.base_wall_ns > 0 && d.cand_wall_ns > 0) {
        gate_ratio = (static_cast<double>(d.cand_wall_ns) /
                      static_cast<double>(d.cand_rounds)) /
                     (static_cast<double>(d.base_wall_ns) /
                      static_cast<double>(d.base_rounds));
        d.wall_normalized = true;
      }
      d.wall_regression = wall_gated && gate_ratio > options.max_wall_ratio;
      // Per-cell timing that silently vanishes would exempt the cell from
      // every future wall gate.
      if (d.base_wall_ns > 0 && d.cand_wall_ns == 0) {
        result.notes.push_back("wall_ns vanished from cell '" + key + "'");
        d.missing_wall = true;
      }
    }
    if (d.protected_mode && c->has_mi()) {
      d.leak_regression = c->mi_bits > base_mi_floor + kMiEpsBits;
    }
    if (d.protected_mode && !d.leak_regression && b != nullptr && b->has_mi() &&
        !c->has_mi()) {
      // The MI observable itself vanished from a protected cell: same rule
      // as a vanished leak-metric key — losing the observable would
      // silently disarm the gate.
      result.notes.push_back("mi_bits vanished from protected cell '" + key + "'");
      d.leak_regression = true;
    }
    if (d.protected_mode && !d.leak_regression) {
      // Non-MI leak observables: gate kLeakMetricKeys the same way
      // (baseline value, or 0 when the cell/key is new, is the floor).
      // A key the baseline records but the candidate dropped fails too —
      // removing the observable would silently disarm the gate.
      for (const std::string metric : kLeakMetricKeys) {
        auto cm = c->metrics.find(metric);
        const double* base_value = nullptr;
        if (b != nullptr) {
          if (auto bm = b->metrics.find(metric); bm != b->metrics.end()) {
            base_value = &bm->second;
          }
        }
        if (cm == c->metrics.end()) {
          if (base_value != nullptr) {
            result.notes.push_back("leak metric '" + metric +
                                   "' vanished from protected cell '" + key + "'");
            d.leak_regression = true;
            break;
          }
          continue;
        }
        double floor = base_value != nullptr ? *base_value : 0.0;
        if (cm->second > floor + kLeakMetricEps) {
          d.leak_regression = true;
          break;
        }
      }
    }
    d.cand_contract = c->contract_clean;
    if (d.protected_mode) {
      if (d.cand_contract == 0 && d.base_contract != 0) {
        // Newly dirty (baseline clean, or held to clean when absent/new).
        // Cells the baseline already shows dirty (the paper's residual x86
        // private-L2 state) pass as long as they stay no worse.
        d.contract_regression = true;
        if (!c->contract_first.empty()) {
          result.notes.push_back("contract violation in '" + key + "': " + c->contract_first);
        }
      } else if (base_has_contract && d.cand_contract < 0) {
        // A taint-on baseline holds every protected cell to recording its
        // verdict; losing the observable would disarm this gate.
        result.notes.push_back("contract_clean missing from protected cell '" + key + "'");
        d.contract_regression = true;
      }
    }
    result.leak_regressions += d.leak_regression ? 1 : 0;
    result.wall_regressions += d.wall_regression ? 1 : 0;
    result.mi_delta_regressions += d.mi_delta_regression ? 1 : 0;
    result.missing_wall += d.missing_wall ? 1 : 0;
    result.contract_regressions += d.contract_regression ? 1 : 0;
    result.cells.push_back(std::move(d));
  }
  // Whole-diff totals for the report's summary block, folded over the
  // compared cells (crash-isolated candidates included — their wall time
  // was burned either way).
  for (const CellDiff& d : result.cells) {
    DiffSummary& s = result.summary;
    s.base_wall_ns += d.base_wall_ns;
    s.cand_wall_ns += d.cand_wall_ns;
    s.base_rounds += d.base_rounds;
    s.cand_rounds += d.cand_rounds;
    if (d.leak_regression || d.wall_regression || d.mi_delta_regression ||
        d.missing_wall || d.contract_regression || d.cell_failure()) {
      ++s.cells_gated;
    }
  }
  if (result.cells.empty()) {
    // Both labels exist but nothing was comparable (disjoint cell sets or
    // quick/full mismatch everywhere): a PASS here would mean a gate that
    // examined nothing, so refuse instead.
    outcome.error = "no comparable cells between '" + std::string(baseline) + "' and '" +
                    std::string(candidate) + "'";
  }
  return outcome;
}

std::string ReportJson(const DiffOutcome& outcome) {
  const DiffResult& r = outcome.result;
  std::string out = "{\n";
  out += "  \"baseline\": " + JsonQuote(r.baseline_label) + ",\n";
  out += "  \"candidate\": " + JsonQuote(r.candidate_label) + ",\n";
  out += "  \"options\": {\"max_wall_ratio\": " + JsonNumber(r.options.max_wall_ratio) +
         ", \"max_abs_mi_delta\": " +
         (std::isfinite(r.options.max_abs_mi_delta) ? JsonNumber(r.options.max_abs_mi_delta)
                                                    : std::string("null")) +
         "},\n";
  out += "  \"summary\": {\"cells_compared\": " + std::to_string(r.cells.size()) +
         ", \"base_total_wall_ns\": " + std::to_string(r.summary.base_wall_ns) +
         ", \"cand_total_wall_ns\": " + std::to_string(r.summary.cand_wall_ns) +
         ", \"base_total_rounds\": " + std::to_string(r.summary.base_rounds) +
         ", \"cand_total_rounds\": " + std::to_string(r.summary.cand_rounds) +
         ", \"cells_gated\": " + std::to_string(r.summary.cells_gated) + "},\n";
  if (!outcome.error.empty()) {
    out += "  \"error\": " + JsonQuote(outcome.error) + ",\n";
  }
  out += "  \"ok\": " + std::string(outcome.ok() ? "true" : "false") + ",\n";
  out += "  \"leak_regressions\": " + std::to_string(r.leak_regressions) + ",\n";
  out += "  \"wall_regressions\": " + std::to_string(r.wall_regressions) + ",\n";
  out += "  \"mi_delta_regressions\": " + std::to_string(r.mi_delta_regressions) + ",\n";
  out += "  \"missing_cells\": " + std::to_string(r.missing_in_candidate.size()) + ",\n";
  out += "  \"missing_wall\": " + std::to_string(r.missing_wall) + ",\n";
  out += "  \"contract_regressions\": " + std::to_string(r.contract_regressions) + ",\n";
  out += "  \"failed_cells\": " + std::to_string(r.failed_cells) + ",\n";
  out += "  \"cells_compared\": " + std::to_string(r.cells.size()) + ",\n";
  AppendStringArray(out, "missing_in_candidate", r.missing_in_candidate);
  out += ",\n";
  AppendStringArray(out, "missing_in_baseline", r.missing_in_baseline);
  out += ",\n";
  AppendStringArray(out, "notes", r.notes);
  out += ",\n  \"cells\": [";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const CellDiff& d = r.cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"bench\": " + JsonQuote(d.bench) + ", \"cell\": " + JsonQuote(d.cell);
    out += ", \"protected\": " + std::string(d.protected_mode ? "true" : "false");
    if (!std::isnan(d.base_mi)) {
      out += ", \"base_mi_bits\": " + JsonNumber(d.base_mi);
    }
    if (!std::isnan(d.cand_mi)) {
      out += ", \"cand_mi_bits\": " + JsonNumber(d.cand_mi);
    }
    out += ", \"mi_delta_bits\": " + JsonNumber(d.mi_delta);
    out += ", \"base_wall_ns\": " + std::to_string(d.base_wall_ns);
    out += ", \"cand_wall_ns\": " + std::to_string(d.cand_wall_ns);
    out += ", \"wall_ratio\": " +
           (std::isfinite(d.wall_ratio) ? JsonNumber(d.wall_ratio) : std::string("null"));
    out += ", \"leak_regression\": " + std::string(d.leak_regression ? "true" : "false");
    out += ", \"wall_regression\": " + std::string(d.wall_regression ? "true" : "false");
    out += ", \"mi_delta_regression\": " +
           std::string(d.mi_delta_regression ? "true" : "false");
    if (d.missing_wall) {
      out += ", \"missing_wall\": true";
    }
    out += ", \"base_rounds\": " + std::to_string(d.base_rounds);
    out += ", \"cand_rounds\": " + std::to_string(d.cand_rounds);
    if (d.wall_normalized) {
      out += ", \"wall_normalized\": true";
    }
    if (d.base_contract >= 0) {
      out += ", \"base_contract_clean\": " + std::string(d.base_contract != 0 ? "true" : "false");
    }
    if (d.cand_contract >= 0) {
      out += ", \"cand_contract_clean\": " + std::string(d.cand_contract != 0 ? "true" : "false");
    }
    if (d.contract_regression) {
      out += ", \"contract_regression\": true";
    }
    if (d.cell_failure()) {
      out += ", \"cell_status\": " + JsonQuote(d.cand_status);
    }
    out += "}";
  }
  out += r.cells.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace tp::trajectory
