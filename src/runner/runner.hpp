// Sharded parallel experiment runner.
//
// The paper's evaluation is a grid of *independent* channel experiments —
// scenario x platform x rounds. Each cell's rounds split into shards; every
// shard builds its own simulated machine and runs with an RNG stream derived
// from the root seed by splitmix64, so the shard layout (and therefore every
// symbol/sample stream and the merged result) depends only on the plan,
// never on how many host threads execute it: same root seed => bit-identical
// merged mi::Observations and MI at any thread count.
//
// ExperimentRunner::Map is the generic fan-out primitive; SweepEngine
// (runner/sweep.hpp) layers grid cells and their shards on top of it.
#ifndef TP_RUNNER_RUNNER_HPP_
#define TP_RUNNER_RUNNER_HPP_

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mi/observations.hpp"

namespace tp::runner {

// SplitMix64 (Steele et al.): full-period 64-bit mixer; the canonical way to
// derive independent stream seeds from one root seed.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// How one cell's rounds split into deterministic shards. The layout is a
// pure function of (total rounds, root seed, policy knobs) — host thread
// count never enters.
struct ShardPlan {
  std::uint64_t root_seed = 0;
  std::vector<std::size_t> shard_rounds;

  std::size_t num_shards() const { return shard_rounds.size(); }
  std::size_t total_rounds() const;

  // Independent per-shard seed stream: mixing the shard index through
  // splitmix twice decorrelates shard 0 from the root seed itself.
  std::uint64_t SeedFor(std::size_t shard) const {
    return SplitMix64(root_seed ^ SplitMix64(static_cast<std::uint64_t>(shard) + 1));
  }
};

// Splits `total_rounds` into at most `max_shards` near-equal shards of at
// least `min_shard_rounds` each (every shard pays a warm-up slice and drops
// one straddling sample, so tiny shards would waste rounds and starve the
// per-shard MI estimate).
ShardPlan PlanShards(std::size_t total_rounds, std::uint64_t root_seed,
                     std::size_t min_shard_rounds = 16, std::size_t max_shards = 8);

// A pool of host threads executing independent simulation tasks. Results
// are always delivered in task-index order, so callers see the same output
// at any thread count.
class ExperimentRunner {
 public:
  // 0 = auto: the TP_THREADS environment knob, else the host's core count.
  explicit ExperimentRunner(std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  // TP_THREADS when set and non-empty, else std::thread::hardware_concurrency.
  // Throws std::invalid_argument when TP_THREADS is not a positive integer
  // (ParsePositiveInt), so a typo never silently runs on every core.
  static std::size_t DefaultThreads();

  // Runs fn(0..n-1) across the pool; returns results in index order.
  // The first exception thrown by a task is rethrown after all workers
  // drain.
  template <typename Fn>
  auto Map(std::size_t n, Fn&& fn) const {
    return MapScheduled(n, {}, std::forward<Fn>(fn));
  }

  // Map with an explicit claim order: workers take tasks in `order` (a
  // permutation of 0..n-1; empty = index order). This is scheduling only —
  // every task runs the same work and results return in task-index order,
  // so the output is bit-identical for any order at any thread count.
  // SweepEngine feeds the longest-first shard permutation here so one slow
  // cell's round ranges spread across the pool from the start instead of
  // queueing behind the rest of the grid.
  template <typename Fn>
  auto MapScheduled(std::size_t n, const std::vector<std::size_t>& order, Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(std::is_default_constructible_v<R>,
                  "Map task results must be default-constructible");
    static_assert(!std::is_same_v<R, bool>,
                  "bool results would race on vector<bool> bit packing; return int");
    std::vector<R> results(n);
    auto task_at = [&order](std::size_t k) { return order.empty() ? k : order[k]; };
    std::size_t workers = threads_ < n ? threads_ : n;
    if (workers <= 1) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = task_at(k);
        results[i] = fn(i);
      }
      return results;
    }
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;
    auto work = [&]() {
      for (;;) {
        std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= n) {
          return;
        }
        const std::size_t i = task_at(k);
        try {
          results[i] = fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) {
            error = std::current_exception();
          }
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back(work);
    }
    for (std::thread& t : pool) {
      t.join();
    }
    if (error) {
      std::rethrow_exception(error);
    }
    return results;
  }

 private:
  std::size_t threads_;
};

// Concatenates per-shard observations in shard order (the deterministic
// merge: shard boundaries are plan-defined, so the merged stream is
// reproducible at any thread count).
mi::Observations MergeObservations(const std::vector<mi::Observations>& parts);

// A positive whole number no greater than `max`, as the TP_THREADS and
// TP_CELL_BUDGET_MS knobs spell it. Anything else ("", "abc", "4x", "-1",
// "0", "+5", " 5", an overflow) is nullopt, never a silent default.
std::optional<std::uint64_t> ParsePositiveInt(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

struct Shard {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::size_t rounds = 0;
};

}  // namespace tp::runner

#endif  // TP_RUNNER_RUNNER_HPP_
