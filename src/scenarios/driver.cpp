#include "scenarios/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "runner/recorder.hpp"
#include "scenarios/summary.hpp"

namespace tp::scenarios {

std::vector<const ChannelSpec*> SelectSpecs(const ChannelRegistry& registry,
                                            const std::vector<std::string>& only,
                                            std::string* error) {
  std::vector<const ChannelSpec*> all = registry.All();
  if (only.empty()) {
    return all;
  }
  std::vector<const ChannelSpec*> selected;
  for (const std::string& name : only) {
    const ChannelSpec* spec = registry.Find(name);
    if (spec == nullptr) {
      if (error != nullptr) {
        *error = "unknown channel '" + name + "'; registered channels:";
        for (const ChannelSpec* s : all) {
          *error += "\n  " + s->name;
        }
      }
      return {};
    }
    // A name given twice runs, and records, once.
    if (std::find(selected.begin(), selected.end(), spec) == selected.end()) {
      selected.push_back(spec);
    }
  }
  return selected;
}

std::vector<runner::SweepCellResult> RunSpec(const ChannelSpec& spec,
                                             const runner::ExperimentRunner& pool,
                                             bool verbose) {
  if (verbose) {
    Header(spec.title, spec.paper);
  }
  runner::SweepEngine engine(pool);
  bench::Recorder recorder(spec.name);

  std::vector<runner::SweepCellResult> results;
  for (const runner::GridSpec& grid : spec.grids()) {
    std::vector<runner::SweepCellResult> part;
    if (spec.is_channel()) {
      part = engine.RunChannelGrid(grid, spec.cell_shard, spec.leak_options);
    } else {
      part = engine.RunCostGrid(grid, spec.cost_cell);
    }
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  if (results.empty()) {
    // A channel that expands to zero cells would pass every downstream
    // gate (only the "total" record exists) — refuse instead.
    throw std::runtime_error("channel '" + spec.name + "' expanded to no grid cells");
  }
  if (spec.derive) {
    spec.derive(results);
  }
  if (verbose && spec.is_channel()) {
    std::printf("\n");
    PrintSweepResults(results);
  }
  runner::RecordSweep(recorder, pool, results);
  if (spec.report && verbose) {
    spec.report(results);
  }
  return results;
}

std::string ListNames(const ChannelRegistry& registry) {
  std::string out;
  for (const ChannelSpec* spec : registry.All()) {
    out += spec->name;
    out += "\n";
  }
  return out;
}

std::string MarkdownTable(const ChannelRegistry& registry) {
  std::string out = "| channel | kind | reproduces | paper result | contract_clean |\n";
  out += "| --- | --- | --- | --- | --- |\n";
  for (const ChannelSpec* spec : registry.All()) {
    out += "| `" + spec->name + "` | " + spec->kind() + " | " + spec->title + " | " +
           spec->paper + " | " + (spec->contract.empty() ? "—" : spec->contract) + " |\n";
  }
  return out;
}

}  // namespace tp::scenarios
