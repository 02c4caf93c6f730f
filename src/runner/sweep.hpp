// Parameter-grid sweeps over the experiment space.
//
// GridSpec names the paper's evaluation axes — platform x timeslice x
// colour-fraction x protection mode, plus a driver-defined variant axis —
// as plain values; ExpandGrid produces the cartesian cell list. Each cell's
// seed stream is derived (splitmix64) from the cell's *coordinates*, never
// from its enumeration index, so extending an axis adds cells without
// reshuffling the seeds — and therefore the recorded observations and MI —
// of pre-existing cells.
//
// SweepEngine runs every MI cell for its full round budget: one wave on the
// ExperimentRunner holds every shard of every cell, then each healthy cell
// takes the leakage test. The shard layout is a pure function of the spec,
// so a grid's merged results are bit-identical at any TP_THREADS. MI cells
// and cost cells run their bodies in the same crash-isolation harness.
#ifndef TP_RUNNER_SWEEP_HPP_
#define TP_RUNNER_SWEEP_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hw/taint.hpp"
#include "mi/leakage_test.hpp"
#include "mi/observations.hpp"
#include "runner/recorder.hpp"
#include "runner/runner.hpp"

namespace tp::runner {

// FNV-1a, the stable coordinate-string hash feeding the per-cell seeds.
constexpr std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h;
}

// The sweep axes. An axis a driver does not sweep keeps its neutral
// single-element default and is omitted from cell names.
struct GridSpec {
  std::uint64_t root_seed = 0;
  std::size_t rounds = 0;  // per cell, sharded via PlanShards
  std::size_t min_shard_rounds = 16;
  std::size_t max_shards = 8;

  std::vector<std::string> platforms = {""};
  std::vector<double> timeslices_ms = {0.0};     // 0 = axis unused
  std::vector<double> colour_fractions = {1.0};  // share of each domain's colour allocation
  std::vector<std::string> modes = {""};         // protection mode (scenario name)
  std::vector<std::string> variants = {""};      // driver-defined extra axis

  std::size_t num_cells() const {
    return platforms.size() * timeslices_ms.size() * colour_fractions.size() * modes.size() *
           variants.size();
  }
};

struct GridCell {
  std::string platform;
  std::string variant;
  double timeslice_ms = 0.0;
  double colour_fraction = 1.0;
  std::string mode;
  std::uint64_t seed = 0;  // root of this cell's splitmix64 shard-seed stream

  // Canonical coordinate key (every axis, spelled out) — the seed input.
  std::string CoordKey() const;
  // Display name, "platform/variant/ts=..ms/cf=../mode" with neutral axes
  // (empty strings, ts 0, cf 1.0) omitted.
  std::string Name() const;
};

std::vector<GridCell> ExpandGrid(const GridSpec& spec);

// `grid` narrowed to its one cell named `cell_name`: every axis holds only
// that cell's value, so the cell keeps its coordinates and therefore its
// seed, and a sweep of the result runs exactly the registered cell. Throws
// std::invalid_argument when `grid` has no such cell, and std::logic_error
// if the narrowed cell's seed or name differs from the original's.
GridSpec OneCellGrid(const GridSpec& grid, std::string_view cell_name);

// What one cost cell's body returns: the figures the cell owns. `display`
// is optional text for the spec's report (fig4's spy trace).
struct CostCell {
  std::size_t rounds = 0;
  std::size_t samples = 0;
  std::map<std::string, double> metrics;
  std::string display;
};

// One cell's merged result: observations, the leakage verdict over them,
// and summed per-shard host work time (comparable across runs of any
// thread count, unlike elapsed wall-clock of concurrent cells).
struct SweepCellResult {
  GridCell cell;
  mi::Observations observations;
  mi::LeakageResult leakage;
  std::size_t rounds = 0;  // the spec's per-cell rounds
  std::size_t shards = 0;
  std::uint64_t wall_ns = 0;
  hw::ContractTally contract;  // merged over shards; all-zero when taint off
  // Crash-isolation outcome: "ok", "failed" (a shard body threw) or
  // "timeout" (the per-cell wall-time budget was exceeded). Non-ok cells
  // carry no observations/leakage; `error` holds the first failure message.
  std::string status = "ok";
  std::string error;
  // Cost cells (RunCostGrid): what the body returned, recorded in place of
  // observations and a leakage verdict. Empty for MI cells and for cost
  // cells that did not finish.
  std::optional<CostCell> cost;

  bool ok() const { return status == "ok"; }
};

// Sweep-wide controls for crash isolation.
struct SweepOptions {
  // Per-cell watchdog: when a cell's summed shard work time exceeds this
  // budget, remaining shards are abandoned and the cell is recorded with
  // cell_status "timeout". 0 disables the watchdog (the TP_CELL_BUDGET_MS
  // environment variable supplies a process-wide default).
  std::uint64_t cell_budget_ns = 0;
};

// A per-cell budget in milliseconds, as `tp_bench --cell-budget-ms` and
// TP_CELL_BUDGET_MS spell it: a positive whole number whose nanoseconds fit
// 64 bits. Anything else is nullopt, never a watchdog silently switched off
// ("abc", "0.5", "0") or set to centuries ("-1").
std::optional<std::uint64_t> ParseCellBudgetMs(std::string_view text);

class SweepEngine {
 public:
  explicit SweepEngine(const ExperimentRunner& runner) : runner_(runner) {}

  using CellShardFn = std::function<mi::Observations(const GridCell&, const Shard&)>;

  // Channel sweeps: every shard of every cell runs in one wave on the pool;
  // per-cell leakage tests then fan out over the same pool. Each
  // shard body runs under the cell's ambient fault seed and inside a
  // crash-isolation harness: an exception (or a tripped per-cell watchdog)
  // marks that cell "failed"/"timeout" and the sweep keeps going — it never
  // throws out of a single cell's failure.
  std::vector<SweepCellResult> RunChannelGrid(const GridSpec& spec, const CellShardFn& fn,
                                              const mi::LeakageOptions& leak_options = {},
                                              const SweepOptions& options = {}) const;

  using CostCellFn = std::function<CostCell(const GridCell&)>;

  // Cost sweeps: one task per cell, each run in the same crash-isolation
  // harness and watchdog as an MI shard. A failed cell carries its status
  // instead of a CostCell.
  std::vector<SweepCellResult> RunCostGrid(const GridSpec& spec, const CostCellFn& fn,
                                           const SweepOptions& options = {}) const;

 private:
  const ExperimentRunner& runner_;
};

// Feeds one BenchRecord per cell result into the recorder: MI cells record
// their leakage verdict, cost cells their samples and metrics.
void RecordSweep(bench::Recorder& recorder, const ExperimentRunner& runner,
                 const std::vector<SweepCellResult>& results);

}  // namespace tp::runner

#endif  // TP_RUNNER_SWEEP_HPP_
