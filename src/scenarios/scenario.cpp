#include "scenarios/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tp::scenarios {

void ChannelRegistry::Register(ChannelSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("channel spec without a name");
  }
  if (Find(spec.name) != nullptr) {
    throw std::invalid_argument("duplicate channel name: " + spec.name);
  }
  if (spec.is_channel() == static_cast<bool>(spec.cost_cell)) {
    throw std::invalid_argument("channel '" + spec.name +
                                "' needs exactly one of cell_shard and cost_cell");
  }
  if (!spec.grids) {
    throw std::invalid_argument("channel '" + spec.name + "' has no grids");
  }
  specs_.push_back(std::move(spec));
}

const ChannelSpec* ChannelRegistry::Find(std::string_view name) const {
  for (const ChannelSpec& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<const ChannelSpec*> ChannelRegistry::All() const {
  std::vector<const ChannelSpec*> all;
  all.reserve(specs_.size());
  for (const ChannelSpec& spec : specs_) {
    all.push_back(&spec);
  }
  // Name order, not registration order: static-initialiser order across
  // translation units is unspecified, and --list must be deterministic.
  std::sort(all.begin(), all.end(),
            [](const ChannelSpec* a, const ChannelSpec* b) { return a->name < b->name; });
  return all;
}

ChannelRegistry& ChannelRegistry::Global() {
  static ChannelRegistry registry;
  return registry;
}

RegisterChannel::RegisterChannel(ChannelSpec spec) {
  ChannelRegistry::Global().Register(std::move(spec));
}

}  // namespace tp::scenarios
