// tp_mutate — the defense mutation sweep.
//
// For every registered fault site, breaks that defense (src/faults) on
// every protected quick-grid cell it applies to and asserts that at least
// one detector notices:
//
//   * contract  — the taint-tracking ContractChecker reports the cell dirty
//                 (or strictly more violations) where the unbroken run was
//                 clean;
//   * mi        — the MI leak gate trips with an estimate above the
//                 unbroken run's;
//   * cell_status — the crash-isolation harness records the cell as
//                 failed/timeout (the harness.* self-test sites).
//
// An undetected mutant means a defense whose failure the verification
// stack cannot see — the detection matrix (--report) documents exactly
// which detector catches which broken mechanism where, and CI fails when
// any applicable pair goes undetected.
//
// Exit codes: 0 every applicable mutant detected; 1 undetected mutant(s);
// 2 bad usage (malformed TP_THREADS included).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "mi/leakage_test.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/scenario.hpp"
#include "trajectory/json.hpp"

namespace {

constexpr const char* kUsage =
    "usage: tp_mutate [--only CHANNEL]... [--site SITE]... [--report PATH]\n"
    "                 [--quiet]\n"
    "\n"
    "Runs the (fault site x protected quick cell) mutation matrix and fails\n"
    "unless every applicable mutant is caught by a detector. --only and\n"
    "--site restrict the matrix; --report writes the detection matrix JSON.\n";

// Applicability: a site applies to a cell when the cell's defense stack
// exercises the broken mechanism AND a detector can observe the breakage.
// The table is deliberately explicit — every row below is proven live by
// the committed detection matrix, and a new site or channel must extend it
// (see BUILDING.md "Adding a fault site"). Only channel (MI) specs are
// swept, so cost scenarios have no rows.
bool Applies(const std::string& site, const std::string& bench,
             const tp::runner::GridCell& cell) {
  const bool prot = cell.mode == "protected";
  const bool full_flush = cell.mode == "full flush";

  // Harness self-test sites: one representative protected cell is enough —
  // the crash-isolation path is channel-independent driver code.
  if (site == "harness.cell_throw" || site == "harness.cell_stall") {
    return bench == "fig5_flush_channel" && prot;
  }
  // BTB/BHB probe cells drive the branch predictor with PC-local branch
  // chains and issue no data-memory traffic, so cache/TLB/LLC residue and
  // stale data translations are invisible to them (and conversely they are
  // the only cells that can witness a dropped branch-predictor flush).
  const bool pc_only = cell.variant == "BTB" || cell.variant == "BHB";

  // LLC flush only happens in the paper's full-flush configuration
  // (§5.3/Table 3); protected mode handles the LLC by colouring and never
  // issues it. PC-only probes never touch the LLC.
  if (site == "flush.llc") {
    return bench == "table3_intra_core" && full_flush && !pc_only;
  }
  // The data-prefetcher off-switch is likewise full-flush-only, and the
  // Sabre model exposes no prefetcher control at all — the fault is a
  // structural no-op on Arm.
  if (site == "prefetch.reset") {
    return bench == "table3_intra_core" && full_flush &&
           cell.platform.find("Haswell") != std::string::npos;
  }
  // Padding defends the timing channels that key on switch latency; its
  // detector is the MI gate (truncated padding reopens the nopad channel),
  // not the contract checker — state is still scrubbed. Table 4's Online
  // variant re-measures and pads to the observed switch time on every
  // switch, so it never consumes the precomputed Step-10 window this fault
  // truncates; only the Offline variant is eligible.
  if (site == "pad.truncate") {
    return prot &&
           (bench == "fig5_flush_channel" ||
            (bench == "table4_flush_channel" && cell.variant == "Offline") ||
            (bench == "ablation_mechanisms" && cell.variant == "switch-padding"));
  }
  // Colour partitioning: channels whose protected mode relies on disjoint
  // cache partitions between sender and receiver domains.
  if (site == "colour.mask" || site == "colour.frame") {
    return prot && bench == "fig3_kernel_channel";
  }
  // A stale translation-memo entry is only observable where the probing
  // domains translate *per-domain* data addresses: the kernel channels
  // (fig3, fig6, and the kernel-clone/irq-partitioning/bp-flush ablation
  // variants) probe shared kernel state whose translations are identical
  // across domains — the incoming domain's first lookup refreshes the memo
  // with the same entry the fault preserved — and PC-only cells translate
  // nothing.
  if (site == "memo.stale") {
    if (!prot || pc_only) {
      return false;
    }
    if (bench == "ablation_mechanisms") {
      return cell.variant == "on-core-flush" || cell.variant == "switch-padding";
    }
    return bench == "fig5_flush_channel" || bench == "table3_intra_core" ||
           bench == "table4_flush_channel";
  }
  // Branch-predictor flush: only branch-history probes can see BP residue.
  // The bp-flush ablation variant's channel is built on predictor state.
  if (site == "flush.bp") {
    return prot && (pc_only || (bench == "ablation_mechanisms" &&
                                cell.variant == "bp-flush"));
  }
  // L1-I residue needs a victim whose *instruction* footprint varies with
  // the secret: the kernel channels (fig3 kernel-text walk, fig6 interrupt
  // paths, kernel-clone/irq-partitioning ablations) and the dedicated L1-I
  // probe. Data-probe cells execute a fixed probe loop, so a skipped I-cache
  // flush leaves nothing secret-dependent behind.
  if (site == "flush.l1i") {
    if (!prot) {
      return false;
    }
    if (bench == "ablation_mechanisms") {
      return cell.variant == "kernel-clone" || cell.variant == "irq-partitioning";
    }
    return bench == "fig3_kernel_channel" || bench == "fig6_interrupt_channel" ||
           (bench == "table3_intra_core" && cell.variant == "L1-I");
  }
  // L1-D flush: every protected cell with data-memory probes. PC-only
  // cells and the bp-flush ablation variant issue no data traffic.
  if (site == "flush.l1d") {
    return prot && !pc_only && !(bench == "ablation_mechanisms" && cell.variant == "bp-flush");
  }
  // TLB flush: translations back every probe access, PC-only or not — a
  // dropped TLB flush is contract-visible on every protected cell.
  if (site == "flush.tlb") {
    return prot;
  }
  return false;
}

struct MatrixEntry {
  std::string site;
  std::string bench;
  std::string cell;
  bool detected = false;
  std::string detector;  // "contract", "mi", "cell_status" or "" (undetected)
  double base_mi = 0.0;
  double mut_mi = 0.0;
  std::uint64_t base_violations = 0;
  std::uint64_t mut_violations = 0;
  std::string mut_status;
};

std::string MatrixJson(const std::vector<MatrixEntry>& entries) {
  using tp::trajectory::JsonNumber;
  using tp::trajectory::JsonQuote;
  std::string out = "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const MatrixEntry& e = entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"site\": " + JsonQuote(e.site) + ", \"bench\": " + JsonQuote(e.bench) +
           ", \"cell\": " + JsonQuote(e.cell);
    out += ", \"detected\": " + std::string(e.detected ? "true" : "false");
    out += ", \"detector\": " + JsonQuote(e.detector);
    out += ", \"base_mi_bits\": " + JsonNumber(e.base_mi);
    out += ", \"mutant_mi_bits\": " + JsonNumber(e.mut_mi);
    out += ", \"base_violations\": " + std::to_string(e.base_violations);
    out += ", \"mutant_violations\": " + std::to_string(e.mut_violations);
    if (!e.mut_status.empty()) {
      out += ", \"mutant_cell_status\": " + JsonQuote(e.mut_status);
    }
    out += "}";
  }
  out += entries.empty() ? "]\n" : "\n]\n";
  return out;
}

// Runs exactly one cell of one grid through the production sweep path (a
// grid narrowed to that cell, seeded as the registered cell), so fault
// latching, seeding and contract capture behave exactly as in tp_bench.
tp::runner::SweepCellResult RunOneCell(const tp::runner::ExperimentRunner& pool,
                                       const tp::scenarios::ChannelSpec& spec,
                                       const tp::runner::GridSpec& grid,
                                       const std::string& cell_name,
                                       std::uint64_t cell_budget_ns) {
  tp::runner::SweepOptions options;
  options.cell_budget_ns = cell_budget_ns;
  return tp::runner::SweepEngine(pool)
      .RunChannelGrid(tp::runner::OneCellGrid(grid, cell_name), spec.cell_shard,
                      spec.leak_options, options)
      .front();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> only;
  std::set<std::string> sites;
  std::string report_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tp_mutate: %s needs a value\n%s", arg.c_str(), kUsage);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--only") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      only.emplace_back(v);
    } else if (arg == "--site") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      if (!tp::faults::IsKnownFaultSite(v)) {
        std::fprintf(stderr, "tp_mutate: unknown fault site '%s'\n", v);
        return 2;
      }
      sites.insert(v);
    } else if (arg == "--report") {
      const char* v = value();
      if (v == nullptr) {
        return 2;
      }
      report_path = v;
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "tp_mutate: unknown argument '%s'\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }

  // A malformed TP_THREADS is bad usage, never "all cores".
  std::size_t threads = 0;
  try {
    threads = tp::runner::ExperimentRunner::DefaultThreads();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "tp_mutate: %s\n", e.what());
    return 2;
  }

  // The matrix runs quick grids with the contract checker live and no
  // results recording — the detectors, not the trajectory, are under test.
  setenv("TP_TAINT", "1", 1);
  setenv("TP_QUICK", "1", 1);
  setenv("TP_BENCH_JSON", "", 1);

  const tp::scenarios::ChannelRegistry& registry =
      tp::scenarios::ChannelRegistry::Global();
  std::vector<const tp::scenarios::ChannelSpec*> specs;
  for (const tp::scenarios::ChannelSpec* spec : registry.All()) {
    if (!spec->is_channel()) {
      continue;
    }
    if (!only.empty()) {
      bool wanted = false;
      for (const std::string& name : only) {
        wanted = wanted || name == spec->name;
      }
      if (!wanted) {
        continue;
      }
    }
    specs.push_back(spec);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "tp_mutate: no channel scenarios selected\n");
    return 2;
  }

  tp::runner::ExperimentRunner pool(threads);
  std::vector<MatrixEntry> matrix;
  std::size_t undetected = 0;

  for (const tp::scenarios::ChannelSpec* spec : specs) {
    for (const tp::runner::GridSpec& grid : spec->grids()) {
      for (const tp::runner::GridCell& cell : tp::runner::ExpandGrid(grid)) {
        const std::string cell_name = cell.Name();
        // Which sites target this cell?
        std::vector<std::string> applicable;
        for (const tp::faults::FaultSiteInfo& info : tp::faults::FaultSites()) {
          if (!sites.empty() && sites.find(info.name) == sites.end()) {
            continue;
          }
          if (Applies(info.name, spec->name, cell)) {
            applicable.push_back(info.name);
          }
        }
        if (applicable.empty()) {
          continue;
        }

        tp::faults::ClearFaultPlan();
        const tp::runner::SweepCellResult base = RunOneCell(pool, *spec, grid, cell_name, 0);
        if (!base.ok()) {
          std::fprintf(stderr, "tp_mutate: baseline run of %s/%s %s\n",
                       spec->name.c_str(), cell_name.c_str(), base.status.c_str());
          ++undetected;  // a broken baseline must fail the gate too
          continue;
        }

        for (const std::string& site : applicable) {
          tp::faults::FaultPlan plan;
          plan.site = site;
          plan.seed = 0x5EEDull ^ tp::runner::Fnv1a64(site);
          tp::faults::InstallFaultPlan(plan);
          // The stall self-test needs a budget the healthy shards cannot
          // trip; the injected sleep overshoots any budget by design.
          const std::uint64_t budget =
              site == "harness.cell_stall" ? base.wall_ns * 10 + 500'000'000ull : 0;
          const tp::runner::SweepCellResult mut = RunOneCell(pool, *spec, grid, cell_name, budget);
          tp::faults::ClearFaultPlan();

          MatrixEntry entry;
          entry.site = site;
          entry.bench = spec->name;
          entry.cell = cell_name;
          entry.base_mi = base.leakage.mi_bits;
          entry.base_violations = base.contract.violations;
          entry.mut_mi = mut.leakage.mi_bits;
          entry.mut_violations = mut.contract.violations;
          entry.mut_status = mut.ok() ? "" : mut.status;
          if (!mut.ok()) {
            entry.detected = true;
            entry.detector = "cell_status";
          } else if ((base.contract.clean() && !mut.contract.clean()) ||
                     mut.contract.violations > base.contract.violations) {
            entry.detected = true;
            entry.detector = "contract";
          } else if (mut.leakage.leak &&
                     mut.leakage.mi_bits > base.leakage.mi_bits + tp::mi::kResolutionBits) {
            entry.detected = true;
            entry.detector = "mi";
          }
          if (!entry.detected) {
            ++undetected;
          }
          if (!quiet) {
            std::printf("%-20s %-24s %-34s %s%s\n", site.c_str(), spec->name.c_str(),
                        cell_name.c_str(), entry.detected ? "DETECTED" : "UNDETECTED",
                        entry.detected ? (" (" + entry.detector + ")").c_str() : "");
            std::fflush(stdout);
          }
          matrix.push_back(std::move(entry));
        }
      }
    }
  }

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << MatrixJson(matrix);
    if (!out) {
      std::fprintf(stderr, "tp_mutate: cannot write %s\n", report_path.c_str());
      return 2;
    }
  }
  std::printf("tp_mutate: %zu mutant(s), %zu undetected -> %s\n", matrix.size(),
              undetected, undetected == 0 ? "PASS" : "FAIL");
  return undetected == 0 ? 0 : 1;
}
