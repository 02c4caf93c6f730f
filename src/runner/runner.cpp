#include "runner/runner.hpp"

#include <cstdlib>

namespace tp::runner {

std::size_t ShardPlan::total_rounds() const {
  std::size_t total = 0;
  for (std::size_t r : shard_rounds) {
    total += r;
  }
  return total;
}

ShardPlan PlanShards(std::size_t total_rounds, std::uint64_t root_seed,
                     std::size_t min_shard_rounds, std::size_t max_shards) {
  if (min_shard_rounds == 0) {
    min_shard_rounds = 1;
  }
  std::size_t shards = total_rounds / min_shard_rounds;
  if (shards > max_shards) {
    shards = max_shards;
  }
  if (shards == 0) {
    shards = 1;
  }
  ShardPlan plan;
  plan.root_seed = root_seed;
  plan.shard_rounds.resize(shards, total_rounds / shards);
  // Distribute the remainder over the leading shards.
  for (std::size_t i = 0; i < total_rounds % shards; ++i) {
    ++plan.shard_rounds[i];
  }
  return plan;
}

ExperimentRunner::ExperimentRunner(std::size_t threads)
    : threads_(threads > 0 ? threads : DefaultThreads()) {}

std::size_t ExperimentRunner::DefaultThreads() {
  if (const char* env = std::getenv("TP_THREADS"); env != nullptr && env[0] != '\0') {
    long n = std::strtol(env, nullptr, 10);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

mi::Observations MergeObservations(const std::vector<mi::Observations>& parts) {
  mi::Observations merged;
  for (const mi::Observations& part : parts) {
    for (std::size_t i = 0; i < part.size(); ++i) {
      merged.Add(part.inputs()[i], part.outputs()[i]);
    }
  }
  return merged;
}

}  // namespace tp::runner
