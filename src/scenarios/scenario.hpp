// The channel registry: every paper experiment is a named, enumerable,
// sweepable scenario.
//
// A ChannelSpec describes one figure/table reproduction: its name (the
// recorder's bench key), the GridSpec(s) spanning its evaluation axes, and
// the body that produces results. Channel-style scenarios supply a
// per-(cell, shard) experiment closure expanded through
// SweepEngine::RunChannelGrid; cost-style scenarios (switch latency, IPC
// cycles, Splash slowdowns, ...) supply a per-cell body expanded through
// SweepEngine::RunCostGrid. Crash isolation and recording are shared
// driver code for both, not per-scenario boilerplate.
//
// Specs self-register into the global registry from static initialisers
// (`RegisterChannel` at namespace scope in each scenario file), so the
// tp_bench CLI and CI can enumerate every channel — nothing has to be
// added to a hand-maintained driver list, and a channel that exists cannot
// be silently skipped by the leakage gate.
#ifndef TP_SCENARIOS_SCENARIO_HPP_
#define TP_SCENARIOS_SCENARIO_HPP_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mi/leakage_test.hpp"
#include "runner/sweep.hpp"

namespace tp::scenarios {

struct ChannelSpec {
  std::string name;   // registry key and recorder bench name
  std::string title;  // one-line heading ("Figure 3: ...")
  std::string paper;  // the paper's numbers for this experiment
  // What the taint-tracking contract checker proves for this scenario's
  // cells under TP_TAINT=1 (the `contract_clean` column of the README
  // table). Empty renders as "—".
  std::string contract;

  // Builds the scenario's grid(s). Called at run time, so TP_QUICK scaling
  // (runner/quick.hpp) applies to the invocation, not to process start-up.
  std::function<std::vector<runner::GridSpec>()> grids;

  // Channel scenarios: the experiment closure consumed by
  // SweepEngine::RunChannelGrid for every (cell, shard).
  runner::SweepEngine::CellShardFn cell_shard;
  mi::LeakageOptions leak_options;

  // Cost scenarios: the per-cell body consumed by SweepEngine::RunCostGrid
  // (set instead of cell_shard).
  runner::SweepEngine::CostCellFn cost_cell;
  // Optional cost-scenario step that fills in metrics comparing a cell with
  // a baseline cell. Runs once over all of the spec's grids, before
  // recording.
  std::function<void(std::vector<runner::SweepCellResult>&)> derive;

  // Optional reporting after the cells are recorded (tables, channel
  // matrices, per-symbol scatter tables, shape checks).
  std::function<void(const std::vector<runner::SweepCellResult>&)> report;

  bool is_channel() const { return static_cast<bool>(cell_shard); }
  // "channel" (MI cells, leak-gated) or "cost" (metrics), from the body.
  std::string kind() const { return is_channel() ? "channel" : "cost"; }
};

class ChannelRegistry {
 public:
  // Validates and adds a spec. Throws std::invalid_argument on an empty or
  // duplicate name, missing grids, or not exactly one of cell_shard and
  // cost_cell.
  void Register(ChannelSpec spec);

  const ChannelSpec* Find(std::string_view name) const;  // nullptr when unknown
  std::vector<const ChannelSpec*> All() const;           // sorted by name
  std::size_t size() const { return specs_.size(); }

  // The process-wide registry all built-in scenarios self-register into.
  static ChannelRegistry& Global();

 private:
  std::vector<ChannelSpec> specs_;
};

// Registers into ChannelRegistry::Global() from a static initialiser:
//   const RegisterChannel registrar{{.name = "fig3_kernel_channel", ...}};
struct RegisterChannel {
  explicit RegisterChannel(ChannelSpec spec);
};

}  // namespace tp::scenarios

#endif  // TP_SCENARIOS_SCENARIO_HPP_
