#include "runner/runner.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

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
    const std::optional<std::uint64_t> n =
        ParsePositiveInt(env, std::numeric_limits<std::size_t>::max());
    if (!n) {
      throw std::invalid_argument(std::string("TP_THREADS='") + env +
                                  "' is not a positive integer");
    }
    return static_cast<std::size_t>(*n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::optional<std::uint64_t> ParsePositiveInt(std::string_view text, std::uint64_t max) {
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (text.empty() || ec != std::errc{} || ptr != end || n == 0 || n > max) {
    return std::nullopt;
  }
  return n;
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
