// Registry-driven scenario execution: the tp_bench and tp_mutate CLIs, the
// perfbench harness and the tests all run scenarios through these entry
// points, so every registered channel behaves identically — header, grid
// expansion, crash-isolated cells, recording, report.
#ifndef TP_SCENARIOS_DRIVER_HPP_
#define TP_SCENARIOS_DRIVER_HPP_

#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "scenarios/scenario.hpp"

namespace tp::scenarios {

// Resolves `only` names against the registry. Empty `only` selects every
// spec (name order); otherwise specs come in first-request order, a
// repeated name selected once. An unknown name sets `*error` (listing the
// valid names) and returns an empty selection.
std::vector<const ChannelSpec*> SelectSpecs(const ChannelRegistry& registry,
                                            const std::vector<std::string>& only,
                                            std::string* error);

// Runs one spec end to end on the shared pool: expands each of its grids
// through SweepEngine::RunChannelGrid (channel specs, which then print the
// uniform sweep table) or RunCostGrid (cost specs, then their derive
// step), records every cell and invokes the spec's report. Returns the
// cell results in grid order. Cell failures are crash-isolated into the
// results' status fields, not thrown.
std::vector<runner::SweepCellResult> RunSpec(const ChannelSpec& spec,
                                             const runner::ExperimentRunner& pool,
                                             bool verbose = true);

// One registered channel name per line, name order (script/CI-friendly).
std::string ListNames(const ChannelRegistry& registry);

// The README channel table: markdown generated from the registry.
std::string MarkdownTable(const ChannelRegistry& registry);

}  // namespace tp::scenarios

#endif  // TP_SCENARIOS_DRIVER_HPP_
